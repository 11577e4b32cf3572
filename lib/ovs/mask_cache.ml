open Pi_classifier

type t = {
  slots : int array;  (* -1 = empty, otherwise a mask index *)
  mask : int;
  mutable generation : int;
      (* the megaflow subtable-array generation the cached indices were
         recorded against; see [sync_generation] *)
  mutable version : int;  (* bumped by every write to [slots] *)
  mutable hits : int;
  mutable misses : int;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Mask_cache.create";
  let cap = next_pow2 capacity in
  { slots = Array.make cap (-1); mask = cap - 1; generation = 0;
    version = 0; hits = 0; misses = 0 }

let capacity t = Array.length t.slots

let slot t flow = Flow.hash flow land t.mask

(* Sentinel result (-1 = no hint) rather than an option: the hint is
   consulted on every hinted lookup and a [Some] would be the last
   allocation on the megaflow hit path. *)
let hint t flow = t.slots.(slot t flow)

let record t flow idx =
  t.slots.(slot t flow) <- idx;
  t.version <- t.version + 1

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  t.version <- t.version + 1

let generation t = t.generation

let sync_generation t gen =
  if t.generation <> gen then begin
    clear t;
    t.generation <- gen
  end

let note_hit t = t.hits <- t.hits + 1
let note_miss t = t.misses <- t.misses + 1

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

(* Differential property for the batch-first Dataplane API: a batch of
   n must be observationally identical to n batches of one — same
   actions, same outcome records, same statistics, same per-shard mask
   census, and the same PRNG stream afterwards (EMC insertion sampling
   draws from it, so a divergent draw order surfaces as a diverging
   tail). Per-packet [process], which the cache backends run as a
   one-packet batch, must agree with both.

   The generated traffic mixes the whitelisted flow, the covert stream
   (fresh masks, hence mid-batch upcalls — synchronous backends walk
   each remaining packet of the batch again on its own) and random
   flows; batch sizes 1, 7 and 32 cover the degenerate, the ragged and
   the rx-ring case, and sequence lengths indivisible by the batch size
   leave a partial final batch. *)

open Pi_ovs
open Pi_classifier
open Helpers

let rules =
  [ Rule.make ~priority:100
      ~pattern:(Pattern.with_ip_src Pattern.any (pfx "10.0.0.10/32"))
      ~action:(Action.Output 2) ();
    Rule.make ~priority:50 ~pattern:(Pattern.with_tp_dst Pattern.any 53)
      ~action:(Action.Output 3) ();
    Rule.make ~priority:1 ~pattern:Pattern.any ~action:Action.Drop () ]

let trusted = Flow.make ~ip_src:(ip "10.0.0.10") ()

let covert k =
  let src =
    Int32.logxor (ip "10.0.0.10") (Int32.shift_left 1l (31 - k))
  in
  Flow.make ~ip_src:src ()

(* A fixed per-packet tail driven through BOTH dataplanes after the
   differential phase: if the batch path consumed the shared PRNG in a
   different order (EMC insertion sampling), the caches now differ and
   the tail outcomes expose it. *)
let tail =
  List.init 16 (fun i ->
      if i land 1 = 0 then trusted else covert (i land 7))

let gen_case =
  let open QCheck2.Gen in
  let gen_flow_mix =
    frequency
      [ (3, return trusted);
        (4, map covert (int_range 0 31));
        (3, Helpers.gen_small_flow) ]
  in
  let gen_pkt = pair gen_flow_mix (int_range 60 1500) in
  pair (list_size (int_range 1 80) gen_pkt) (oneofl [ 1; 7; 32 ])

(* Every side stamps packet [i] with the [now] of its rx round in the
   batch-of-n run, so the one-packet references see exactly the
   timestamps the batch side does. *)
let now_of bs i = float_of_int (i / bs) *. 0.01

let drive_process dp bs pkts =
  List.mapi
    (fun i (f, len) -> Dataplane.process dp ~now:(now_of bs i) f ~pkt_len:len)
    pkts

(* Run [pkts] as batches of [k] packets, stamped as in the batch-of-[bs]
   run. *)
let drive_batches dp ~k bs pkts =
  let arr = Array.of_list pkts in
  let n = Array.length arr in
  let b = Batch.create ~capacity:k in
  let res = ref [] in
  let i = ref 0 in
  while !i < n do
    let m = min k (n - !i) in
    Batch.clear b;
    for j = 0 to m - 1 do
      let f, len = arr.(!i + j) in
      Batch.push b f ~pkt_len:len
    done;
    Dataplane.process_batch dp b ~now:(now_of bs !i);
    for j = 0 to m - 1 do
      res := Batch.result b j :: !res
    done;
    i := !i + m
  done;
  List.rev !res

let mk backend =
  let dp = Dataplane.create (backend ()) (Pi_pkt.Prng.create 7L) in
  Dataplane.install_rules dp rules;
  dp

(* [a] (batches of one) is the reference for [b] (batches of [bs]) and
   [c] (per-packet [process]). *)
let differential backend (pkts, bs) =
  let a = mk backend and b = mk backend and c = mk backend in
  let ra = drive_batches a ~k:1 bs pkts in
  let rb = drive_batches b ~k:bs bs pkts in
  let rc = drive_process c bs pkts in
  (* [f] runs once per dataplane: it may drive it *)
  let all_same f =
    let x = f a in
    x = f b && x = f c
  in
  let same_results = ra = rb && ra = rc in
  let same_stats = all_same Dataplane.stats in
  let same_masks = all_same Dataplane.shard_masks in
  (* Deferred backends: the queues must drain identically... *)
  let same_service =
    all_same (fun d -> Dataplane.service_upcalls d ~now:9.)
    && all_same Dataplane.stats
  in
  (* ...and the PRNG streams must still be in lockstep. *)
  let tail_pkts = List.map (fun f -> (f, 100)) tail in
  let same_tail =
    all_same (fun d -> drive_process d 1 tail_pkts) && all_same Dataplane.stats
  in
  same_results && same_stats && same_masks && same_service && same_tail

let backend_cases =
  [ ("datapath", 150, fun () -> Dataplane.datapath ());
    ( "datapath-deferred",
      150,
      fun () ->
        (* depth 8 so overflow drops happen mid-sequence and their
           order/count must match too *)
        Dataplane.datapath
          ~config:{ Datapath.default_config with
                    Datapath.upcall_queue = Upcall_queue.bounded 8 }
          () );
    ( "datapath-kernel",
      150,
      fun () ->
        Dataplane.datapath
          ~config:{ Datapath.default_config with
                    Datapath.emc_enabled = false;
                    mask_cache_capacity = Some 256 }
          () );
    ( "pmd-4",
      80,
      fun () ->
        Dataplane.pmd
          ~config:{ Pmd.default_config with Pmd.n_shards = 4; parallel = false }
          () );
    ("cacheless", 100, fun () -> Pi_mitigation.Cacheless.dataplane ()) ]

let suite =
  List.map
    (fun (label, count, backend) ->
      qtest ~count
        (Printf.sprintf "%s: process_batch ≡ per-packet fold" label)
        gen_case (differential backend))
    backend_cases

(* In-memory span recorder for the traced run.

   A span is one call into a layer, timed from the benchmark's side of
   the boundary: name, start, stop (CLOCK_MONOTONIC ns), the span that
   was open around it, and the counts the call moved (items — packets,
   or megaflows evicted by a revalidation — megaflow probes, upcalls,
   slow-path probes, minor-heap words). Every span is folded into a
   per-name aggregate; the first [capacity] are also retained verbatim
   and written out as TSV when the run ends. Self time of a name is its
   busy time minus the time its direct children cover. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type agg = {
  mutable calls : int;
  mutable busy_ns : int;
  mutable child_ns : int;
  mutable items : int;
  mutable probes : int;
  mutable upcalls : int;
  mutable slow_probes : int;
  mutable words : float;
}

type frame = { id : int; start : int; mutable children : int }

type t = {
  cap : int;
  mutable next_id : int;
  mutable retained : int;
  r_id : int array;
  r_name : string array;
  r_start : int array;
  r_stop : int array;
  r_parent : int array;
  r_items : int array;
  r_probes : int array;
  mutable open_ : frame list;
  aggs : (string, agg) Hashtbl.t;
}

let create ?(capacity = 1 lsl 16) () =
  { cap = capacity;
    next_id = 0;
    retained = 0;
    r_id = Array.make capacity 0;
    r_name = Array.make capacity "";
    r_start = Array.make capacity 0;
    r_stop = Array.make capacity 0;
    r_parent = Array.make capacity (-1);
    r_items = Array.make capacity 0;
    r_probes = Array.make capacity 0;
    open_ = [];
    aggs = Hashtbl.create 32 }

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
    let a =
      { calls = 0; busy_ns = 0; child_ns = 0; items = 0; probes = 0;
        upcalls = 0; slow_probes = 0; words = 0. }
    in
    Hashtbl.replace t.aggs name a;
    a

let find t name = Hashtbl.find_opt t.aggs name

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let finish t ~id ~name ~start ~stop ~children ~items ~probes ~upcalls
    ~slow_probes ~words =
  let dur = stop - start in
  let parent =
    match t.open_ with
    | p :: _ ->
      p.children <- p.children + dur;
      p.id
    | [] -> -1
  in
  let a = agg t name in
  a.calls <- a.calls + 1;
  a.busy_ns <- a.busy_ns + dur;
  a.child_ns <- a.child_ns + children;
  a.items <- a.items + items;
  a.probes <- a.probes + probes;
  a.upcalls <- a.upcalls + upcalls;
  a.slow_probes <- a.slow_probes + slow_probes;
  a.words <- a.words +. words;
  if t.retained < t.cap then begin
    let i = t.retained in
    t.r_id.(i) <- id;
    t.r_name.(i) <- name;
    t.r_start.(i) <- start;
    t.r_stop.(i) <- stop;
    t.r_parent.(i) <- parent;
    t.r_items.(i) <- items;
    t.r_probes.(i) <- probes;
    t.retained <- i + 1
  end

(* A leaf span whose clock readings the caller already took — the same
   two readings the untraced loop takes, so tracing adds no clock reads
   inside the measured interval. *)
let record t name ~start ~stop ?(items = 0) ?(probes = 0) ?(upcalls = 0)
    ?(slow_probes = 0) ?(words = 0.) () =
  finish t ~id:(fresh_id t) ~name ~start ~stop ~children:0 ~items ~probes
    ~upcalls ~slow_probes ~words

(* Spans that enclose other spans. *)
let enter t =
  let f = { id = fresh_id t; start = now_ns (); children = 0 } in
  t.open_ <- f :: t.open_;
  f

let leave t f name =
  let stop = now_ns () in
  (match t.open_ with
   | top :: rest when top == f -> t.open_ <- rest
   | _ -> invalid_arg "Spans.leave: not the innermost open span");
  finish t ~id:f.id ~name ~start:f.start ~stop ~children:f.children ~items:0
    ~probes:0 ~upcalls:0 ~slow_probes:0 ~words:0.

let calls t name = match find t name with Some a -> a.calls | None -> 0
let busy_ns t name = match find t name with Some a -> a.busy_ns | None -> 0

let self_ns t name =
  match find t name with Some a -> a.busy_ns - a.child_ns | None -> 0

let write t ~path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "id\tname\tstart_ns\tstop_ns\tparent\titems\tprobes\n";
  for i = 0 to t.retained - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\n" t.r_id.(i) t.r_name.(i)
      t.r_start.(i) t.r_stop.(i) t.r_parent.(i) t.r_items.(i) t.r_probes.(i)
  done

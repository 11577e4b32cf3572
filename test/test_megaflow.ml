open Pi_ovs
open Pi_classifier
open Helpers

module Astring_like = Helpers.Astring_like

let src_mask len = Mask.with_prefix Mask.empty Field.Ip_src len

let mk ?config () = Megaflow.create ?config ()

let test_insert_lookup () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  let _e =
    Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0
      ~now:0. ()
  in
  match mf_lookup mf (Flow.make ~ip_src:(ip "10.9.9.9") ()) ~now:1. ~pkt_len:100 with
  | Some e, probes ->
    Alcotest.(check action_t) "action" Action.Drop e.Megaflow.action;
    Alcotest.(check int) "one probe" 1 probes;
    Alcotest.(check int) "stats pkts" 1 e.Megaflow.n_packets;
    Alcotest.(check int) "stats bytes" 100 e.Megaflow.n_bytes
  | None, _ -> Alcotest.fail "expected hit"

let test_miss_probes_all_masks () =
  let mf = mk () in
  for i = 1 to 5 do
    let key = Flow.make ~ip_src:(Int32.shift_left 1l (32 - i)) () in
    ignore (Megaflow.insert mf ~key ~mask:(src_mask i) ~action:Action.Drop ~revision:0 ~now:0. ())
  done;
  match mf_lookup mf (Flow.make ~ip_src:0l ()) ~now:0. ~pkt_len:1 with
  | None, probes -> Alcotest.(check int) "probed all 5 masks" 5 probes
  | Some _, _ -> Alcotest.fail "expected miss"

let test_scan_order_is_creation_order () =
  let mf = mk () in
  (* Broad mask first, narrower later; a flow matching both masked keys
     must hit the first-created. *)
  let k1 = Flow.make ~ip_src:(ip "10.0.0.0") () in
  ignore (Megaflow.insert mf ~key:k1 ~mask:(src_mask 8) ~action:(Action.Output 1) ~revision:0 ~now:0. ());
  let k2 = Flow.make ~ip_src:(ip "10.0.0.1") () in
  ignore (Megaflow.insert mf ~key:k2 ~mask:(src_mask 32) ~action:(Action.Output 2) ~revision:0 ~now:0. ());
  match mf_lookup mf (Flow.make ~ip_src:(ip "10.0.0.1") ()) ~now:0. ~pkt_len:1 with
  | Some e, probes ->
    Alcotest.(check action_t) "first mask wins" (Action.Output 1) e.Megaflow.action;
    Alcotest.(check int) "one probe" 1 probes
  | None, _ -> Alcotest.fail "expected hit"

(* Each packet's probe count lives in its own slot of its walk's result
   columns, so two walks in flight cannot clobber each other. *)
let test_probe_reporting_post_retirement () =
  let mf = mk () in
  ignore (Megaflow.insert mf ~key:(Flow.make ~ip_src:(ip "10.0.0.0") ()) ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  ignore (Megaflow.insert mf ~key:(Flow.make ~ip_src:(ip "11.0.0.0") ()) ~mask:(src_mask 16) ~action:Action.Drop ~revision:0 ~now:0. ());
  let w1 = Megaflow.create_walk 1 and w2 = Megaflow.create_walk 1 in
  Megaflow.walk_batch mf [| Flow.make ~ip_src:(ip "10.0.0.1") () |] ~idx:[| 0 |] ~n:1 w1;
  Megaflow.walk_batch mf [| Flow.make ~ip_src:(ip "11.0.0.1") () |] ~idx:[| 0 |] ~n:1 w2;
  Megaflow.commit_walk mf w1 0 ~now:0. ~pkt_len:1;
  Megaflow.commit_walk mf w2 0 ~now:0. ~pkt_len:1;
  Alcotest.(check int) "first walk reports" 1 w1.Megaflow.w_probes.(0);
  Alcotest.(check int) "second walk reports" 2 w2.Megaflow.w_probes.(0);
  Alcotest.(check int) "both committed" 3 (Megaflow.total_probes mf)

let test_replace_same_key () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  ignore (Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  ignore (Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:(Action.Output 3) ~revision:0 ~now:0. ());
  Alcotest.(check int) "still one entry" 1 (Megaflow.n_entries mf);
  match mf_find mf key ~now:0. ~pkt_len:1 with
  | Some e -> Alcotest.(check action_t) "replaced" (Action.Output 3) e.Megaflow.action
  | None -> Alcotest.fail "expected hit"

let test_idle_expiry () =
  let mf = mk ~config:{ Megaflow.max_entries = 100; idle_timeout = 10. } () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  ignore (Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  Alcotest.(check int) "nothing expires early" 0 (Megaflow.revalidate mf ~now:5. ());
  Alcotest.(check int) "expires after timeout" 1 (Megaflow.revalidate mf ~now:20. ());
  Alcotest.(check int) "no entries" 0 (Megaflow.n_entries mf);
  Alcotest.(check int) "no masks" 0 (Megaflow.n_masks mf)

let test_usage_refreshes_idle () =
  let mf = mk ~config:{ Megaflow.max_entries = 100; idle_timeout = 10. } () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  ignore (Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  ignore (mf_find mf key ~now:8. ~pkt_len:1);
  Alcotest.(check int) "refreshed by traffic" 0 (Megaflow.revalidate mf ~now:15. ())

let test_revision_keep () =
  let mf = mk () in
  let k1 = Flow.make ~ip_src:(ip "10.0.0.0") () in
  let k2 = Flow.make ~ip_src:(ip "11.0.0.0") () in
  ignore (Megaflow.insert mf ~key:k1 ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  ignore (Megaflow.insert mf ~key:k2 ~mask:(src_mask 8) ~action:Action.Drop ~revision:1 ~now:0. ());
  let evicted =
    Megaflow.revalidate mf ~now:1. ~keep:(fun e -> e.Megaflow.revision = 1) ()
  in
  Alcotest.(check int) "stale revision evicted" 1 evicted;
  Alcotest.(check int) "one left" 1 (Megaflow.n_entries mf)

let test_alive_flag () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  let e = Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. () in
  Alcotest.(check bool) "alive" true e.Megaflow.alive;
  ignore (Megaflow.revalidate mf ~now:100. ());
  Alcotest.(check bool) "dead after eviction" false e.Megaflow.alive

let test_flow_limit_eviction () =
  let mf = mk ~config:{ Megaflow.max_entries = 50; idle_timeout = 1e9 } () in
  for i = 0 to 59 do
    let key = Flow.make ~ip_src:(Int32.of_int i) () in
    ignore
      (Megaflow.insert mf ~key ~mask:(Mask.with_exact Mask.empty Field.Ip_src)
         ~action:Action.Drop ~revision:0 ~now:(float_of_int i) ())
  done;
  Alcotest.(check bool) "bounded" true (Megaflow.n_entries mf <= 51)

let test_flush () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  let e = Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. () in
  Megaflow.flush mf;
  Alcotest.(check int) "empty" 0 (Megaflow.n_entries mf);
  Alcotest.(check int) "no masks" 0 (Megaflow.n_masks mf);
  Alcotest.(check bool) "entries dead" false e.Megaflow.alive

let test_counters () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  ignore (Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  ignore (mf_find mf key ~now:0. ~pkt_len:1);
  ignore (mf_find mf (Flow.make ~ip_src:(ip "99.0.0.1") ()) ~now:0. ~pkt_len:1);
  Alcotest.(check int) "hits" 1 (Megaflow.hits mf);
  Alcotest.(check int) "misses" 1 (Megaflow.misses mf);
  Alcotest.(check int) "probes accumulated" 2 (Megaflow.total_probes mf);
  Megaflow.reset_stats mf;
  Alcotest.(check int) "reset" 0 (Megaflow.hits mf)

let test_masks_listing () =
  let mf = mk () in
  ignore (Megaflow.insert mf ~key:(Flow.make ~ip_src:(ip "10.0.0.0") ()) ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  ignore (Megaflow.insert mf ~key:(Flow.make ~ip_src:(ip "10.0.0.0") ()) ~mask:(src_mask 16) ~action:Action.Drop ~revision:0 ~now:0. ());
  Alcotest.(check (list mask_t)) "creation order" [ src_mask 8; src_mask 16 ]
    (Megaflow.masks mf)

let test_pp_entry () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  let e = Megaflow.insert mf ~key ~mask:(src_mask 9) ~action:Action.Drop ~revision:0 ~now:0. () in
  ignore (mf_find mf key ~now:4.2 ~pkt_len:100);
  let s = Format.asprintf "%a" (Megaflow.pp_entry ~now:6.7) e in
  Alcotest.(check bool) "prefix rendered" true
    (Astring_like.contains s "ip_src=10.0.0.0/9");
  Alcotest.(check bool) "stats rendered" true
    (Astring_like.contains s "packets:1");
  Alcotest.(check bool) "action rendered" true
    (Astring_like.contains s "actions:drop");
  (* dpctl semantics: "used:" is the age since the last hit (6.7 - 4.2),
     not the absolute stamp. *)
  Alcotest.(check bool) "age rendered, not absolute stamp" true
    (Astring_like.contains s "used:2.50s");
  Alcotest.(check bool) "absolute stamp absent" false
    (Astring_like.contains s "used:4.20s")

let test_pp_entry_never_used () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  let e = Megaflow.insert mf ~key ~mask:(src_mask 9) ~action:Action.Drop ~revision:0 ~now:3. () in
  let s = Format.asprintf "%a" (Megaflow.pp_entry ~now:9.) e in
  Alcotest.(check bool) "no traffic yet prints never" true
    (Astring_like.contains s "used:never")

let test_pp_entry_match_any () =
  let mf = mk () in
  let e =
    Megaflow.insert mf ~key:Flow.zero ~mask:Mask.empty ~action:(Action.Output 3)
      ~revision:0 ~now:0. ()
  in
  let s = Format.asprintf "%a" (Megaflow.pp_entry ~now:0.) e in
  Alcotest.(check bool) "wildcard-all rendered" true
    (Astring_like.contains s "match=any")

let test_dump_limit () =
  let mf = mk () in
  for i = 1 to 10 do
    ignore
      (Megaflow.insert mf ~key:(Flow.make ~ip_src:(Int32.of_int i) ())
         ~mask:(Mask.with_exact Mask.empty Field.Ip_src) ~action:Action.Drop
         ~revision:0 ~now:0. ())
  done;
  let s = Format.asprintf "%a" (fun ppf () -> Megaflow.dump ~max:3 ~now:0. ppf mf) () in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "truncation notice" true
    (List.exists (fun l -> Astring_like.contains l "7 more") lines)

let test_has_mask () =
  let mf = mk () in
  ignore (Megaflow.insert mf ~key:(Flow.make ~ip_src:(ip "10.0.0.0") ()) ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  Alcotest.(check bool) "present" true (Megaflow.has_mask mf (src_mask 8));
  Alcotest.(check bool) "absent" false (Megaflow.has_mask mf (src_mask 9));
  ignore (Megaflow.revalidate mf ~now:100. ());
  Alcotest.(check bool) "gone after expiry" false (Megaflow.has_mask mf (src_mask 8))

let test_generation_tracks_reorders () =
  let mf = mk () in
  let g0 = Megaflow.generation mf in
  (* Appends keep existing subtable indices valid: no bump. *)
  ignore (Megaflow.insert mf ~key:(Flow.make ~ip_src:(ip "10.0.0.0") ()) ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  ignore (Megaflow.insert mf ~key:(Flow.make ~ip_src:(ip "10.0.0.0") ()) ~mask:(src_mask 16) ~action:Action.Drop ~revision:0 ~now:0. ());
  Alcotest.(check int) "append keeps generation" g0 (Megaflow.generation mf);
  (* Reordering the subtable array invalidates recorded indices. *)
  Megaflow.resort_by_hits mf;
  Alcotest.(check bool) "resort bumps generation" true
    (Megaflow.generation mf > g0);
  let g1 = Megaflow.generation mf in
  (* Expiry that drops a subtable compacts the array: bump again. *)
  ignore (Megaflow.revalidate mf ~now:100. ());
  Alcotest.(check bool) "compaction bumps generation" true
    (Megaflow.generation mf > g1)

let test_subtable_stats_probe_health () =
  let mf = mk () in
  for i = 1 to 100 do
    ignore
      (Megaflow.insert mf ~key:(Flow.make ~ip_src:(Int32.of_int i) ())
         ~mask:(Mask.with_exact Mask.empty Field.Ip_src) ~action:Action.Drop
         ~revision:0 ~now:0. ())
  done;
  match Megaflow.subtable_stats mf with
  | [ s ] ->
    Alcotest.(check int) "entries" 100 s.Megaflow.ms_entries;
    Alcotest.(check bool) "capacity is a power of two" true
      (s.Megaflow.ms_capacity land (s.Megaflow.ms_capacity - 1) = 0);
    Alcotest.(check bool) "capacity holds the entries" true
      (s.Megaflow.ms_capacity > s.Megaflow.ms_entries);
    Alcotest.(check bool) "mean probe sane" true
      (s.Megaflow.ms_mean_probe >= 1.
       && s.Megaflow.ms_mean_probe <= float_of_int s.Megaflow.ms_max_probe);
    Alcotest.(check bool) "max probe bounded by entries" true
      (s.Megaflow.ms_max_probe >= 1 && s.Megaflow.ms_max_probe <= 100)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 subtable, got %d" (List.length l))

(* Heavy interleaved insert/remove churn: every removal exercises
   backward-shift deletion and swap-with-last arena compaction; the
   survivors must stay reachable with their own actions. *)
let test_churn_keeps_survivors_reachable () =
  let mf = mk ~config:{ Megaflow.max_entries = 100_000; idle_timeout = 1e9 } () in
  let mask = Mask.with_exact Mask.empty Field.Ip_src in
  let key i = Flow.make ~ip_src:(Int32.of_int i) () in
  for i = 0 to 499 do
    ignore
      (Megaflow.insert mf ~key:(key i) ~mask ~action:(Action.Output i)
         ~revision:(i mod 2) ~now:0. ())
  done;
  (* Evict every odd-revision entry (every second one). *)
  let evicted =
    Megaflow.revalidate mf ~now:0. ~keep:(fun e -> e.Megaflow.revision = 0) ()
  in
  Alcotest.(check int) "half evicted" 250 evicted;
  for i = 0 to 499 do
    match mf_find mf (key i) ~now:0. ~pkt_len:1 with
    | Some e when i mod 2 = 0 ->
      Alcotest.(check action_t) "survivor action" (Action.Output i) e.Megaflow.action
    | None when i mod 2 = 1 -> ()
    | Some _ -> Alcotest.fail (Printf.sprintf "evicted %d still reachable" i)
    | None -> Alcotest.fail (Printf.sprintf "survivor %d lost" i)
  done;
  (* Re-fill the holes and drain completely: the table must come back
     to exactly the survivors' shape, then to empty. *)
  for i = 0 to 499 do
    if i mod 2 = 1 then
      ignore
        (Megaflow.insert mf ~key:(key i) ~mask ~action:(Action.Output i)
           ~revision:0 ~now:0. ())
  done;
  Alcotest.(check int) "refilled" 500 (Megaflow.n_entries mf);
  ignore (Megaflow.revalidate mf ~now:0. ~keep:(fun _ -> false) ());
  Alcotest.(check int) "drained" 0 (Megaflow.n_entries mf);
  Alcotest.(check int) "no masks left" 0 (Megaflow.n_masks mf)

(* --- The walk against an independent reference ---

   The reference knows nothing of the walk: it is built from the public
   observers alone, [masks] for the scan order and [entries] for the
   live entries. A packet's result is the first mask, by scan position,
   under which some entry's key equals the packet's masked flow:
   (that entry, position + 1 probes, position), or (no entry, every mask
   probed, -1). Caches are built with many masks, so bursts take both
   loop orders, and with overlapping entries, so first-match order
   matters. *)

let gen_mask =
  let open QCheck2.Gen in
  let* src = int_range 0 32 in
  let* dport = int_range 0 16 in
  return
    (Mask.with_prefix (Mask.with_prefix Mask.empty Field.Ip_src src)
       Field.Tp_dst dport)

let gen_key =
  let open QCheck2.Gen in
  let* ip_src = map Int32.of_int (int_range 0 7) in
  let* tp_dst = int_range 0 7 in
  return (Flow.make ~ip_src ~tp_dst ())

(* inserts, a revalidation that drops some entries (so subtables are
   compacted away), a resort, the burst and its size *)
let gen_walk_case =
  let open QCheck2.Gen in
  let* n_ins = oneof [ int_range 0 40; int_range 200 400 ] in
  let* inserts = list_size (return n_ins) (pair gen_mask gen_key) in
  let* drop_every = int_range 0 5 in
  let* resort = bool in
  let* n = oneofl [ 1; 7; 32 ] in
  let* burst = list_size (return n) gen_key in
  return (inserts, drop_every, resort, burst)

let build_walk_case (inserts, drop_every, resort, burst) =
  let mf = mk () in
  List.iteri
    (fun i (mask, key) ->
      ignore
        (Megaflow.insert mf ~key ~mask ~action:(Action.Output i)
           ~revision:(if drop_every > 0 && i mod drop_every = 0 then 1 else 0)
           ~now:0. ()))
    inserts;
  ignore (Megaflow.revalidate mf ~now:0. ~keep:(fun e -> e.Megaflow.revision = 0) ());
  (* some hits first, so the resort has a ranking to apply *)
  List.iter (fun f -> ignore (mf_find mf f ~now:0. ~pkt_len:1)) burst;
  if resort then Megaflow.resort_by_hits mf;
  (mf, Array.of_list burst)

(* The reference's two questions: [first flow] is the first match by
   scan position, as (entry, probes, position), and [match_at i flow]
   is the entry under the mask at position [i] that the flow matches,
   if any. Entries are grouped by mask once, so a check costs one pass
   over the masks per packet. *)
let reference mf =
  let groups = Tables.Mask_tbl.create 64 in
  List.iter
    (fun (e : Megaflow.entry) ->
      let es = Option.value ~default:[] (Tables.Mask_tbl.find_opt groups e.Megaflow.mask) in
      Tables.Mask_tbl.replace groups e.Megaflow.mask (e :: es))
    (Megaflow.entries mf);
  let by_mask =
    Array.of_list
      (List.map
         (fun m -> (m, Option.value ~default:[] (Tables.Mask_tbl.find_opt groups m)))
         (Megaflow.masks mf))
  in
  let n_masks = Array.length by_mask in
  let match_at i flow =
    let m, es = by_mask.(i) in
    let masked = Mask.apply m flow in
    List.find_opt (fun (e : Megaflow.entry) -> Flow.equal e.Megaflow.key masked) es
  in
  let rec first flow i =
    if i = n_masks then (None, n_masks, -1)
    else
      match match_at i flow with
      | Some e -> (Some e, i + 1, i)
      | None -> first flow (i + 1)
  in
  ((fun flow -> first flow 0), match_at, n_masks)

let same_slot w j (e, probes, tbl) =
  (match (w.Megaflow.w_entry.(j), e) with
   | Some a, Some b -> a == b
   | None, None -> true
   | _ -> false)
  && w.Megaflow.w_probes.(j) = probes
  && w.Megaflow.w_tbl.(j) = tbl

(* Walk [flows] as one burst, commit every packet, and compare each slot
   and the hit, miss and probe counters with the reference. *)
let walk_equals_reference ?(now = 1.) mf flows =
  let n = Array.length flows in
  let first, _, _ = reference mf in
  let expected = Array.map first flows in
  let hits0 = Megaflow.hits mf and misses0 = Megaflow.misses mf in
  let probes0 = Megaflow.total_probes mf in
  let w = Megaflow.create_walk n in
  Megaflow.walk_batch mf flows ~idx:(Array.init n Fun.id) ~n w;
  for j = 0 to n - 1 do
    Megaflow.commit_walk mf w j ~now ~pkt_len:1
  done;
  let n_hits = Array.fold_left (fun acc (e, _, _) -> if e = None then acc else acc + 1) 0 expected in
  let sum_probes = Array.fold_left (fun acc (_, p, _) -> acc + p) 0 expected in
  Array.for_all Fun.id (Array.mapi (fun j x -> same_slot w j x) expected)
  && Megaflow.hits mf - hits0 = n_hits
  && Megaflow.misses mf - misses0 = n - n_hits
  && Megaflow.total_probes mf - probes0 = sum_probes

let prop_walk_matches_reference =
  qtest ~count:150 "walk + commit ≡ first-match reference" gen_walk_case
    (fun case ->
      let mf, flows = build_walk_case case in
      walk_equals_reference mf flows)

(* The kernel flavour has no reference of its own: a burst walked with
   hints and committed in order must equal the same packets looked up
   one at a time — entries, probes, hint hits and misses — even when
   the burst's packets share hint slots (a 4-slot cache) and overwrite
   each other's hints between the walk and their commits. *)
let prop_hinted_burst_is_one_at_a_time =
  qtest ~count:150 "hinted walk: burst ≡ one at a time" gen_walk_case
    (fun case ->
      let setup () =
        let mf, flows = build_walk_case case in
        let cache = Mask_cache.create ~capacity:4 () in
        (* warm hints, then age some of them with a second pass *)
        Array.iter (fun f -> ignore (mf_find ~hints:cache mf f ~now:0. ~pkt_len:1)) flows;
        (mf, cache, flows)
      in
      let mf_a, cache_a, flows = setup () in
      let mf_b, cache_b, _ = setup () in
      let n = Array.length flows in
      let w = Megaflow.create_walk n in
      Megaflow.walk_batch mf_a ~hints:cache_a flows ~idx:(Array.init n Fun.id) ~n w;
      let burst =
        List.init n (fun j ->
            Megaflow.commit_walk_hinted mf_a cache_a flows.(j) w j ~now:1. ~pkt_len:1;
            (w.Megaflow.w_entry.(j), w.Megaflow.w_probes.(j)))
      in
      let singles =
        List.init n (fun j -> mf_lookup ~hints:cache_b mf_b flows.(j) ~now:1. ~pkt_len:1)
      in
      let shape = function
        | Some (e : Megaflow.entry) -> Some (e.Megaflow.key, e.Megaflow.action)
        | None -> None
      in
      List.for_all2
        (fun (ea, pa) (eb, pb) -> shape ea = shape eb && pa = pb)
        burst singles
      && Mask_cache.hits cache_a = Mask_cache.hits cache_b
      && Mask_cache.misses cache_a = Mask_cache.misses cache_b
      && Megaflow.total_probes mf_a = Megaflow.total_probes mf_b)

(* --- Churn against the reference ---

   Inserts, revalidations, LRU evictions (a small flow limit), resorts
   and flushes interleave over a prefix-mask family whose (field, mask
   word) pairs are shared between masks — the words the walk's probe
   index interns — with masks of up to three fields (three word loads
   per probe), four to six (six loads) and eight, which the index does
   not pack. After every operation a burst is walked and committed,
   unhinted against the first-match reference and hinted
   against the kernel flavour's reference: a packet whose live hint
   names a subtable holding its entry pays one probe; any other packet
   pays the first-match scan, plus one probe for an in-range hint. *)

type churn_op =
  | Ins of (Mask.t * Flow.t) list
  | Reval of int  (* also drop this revision *)
  | Resort
  | Flush

let gen_churn_mask =
  let open QCheck2.Gen in
  (* src and dport prefixes plus [k] exact fields: 4–6 support fields
     for [k] in 2..4, 8 for [k = 6] *)
  let plus_exact k =
    let* src = int_range 1 32 in
    let* dport = int_range 1 16 in
    return
      (List.fold_left Mask.with_exact
         (Mask.with_prefix (src_mask src) Field.Tp_dst dport)
         (List.filteri (fun i _ -> i < k)
            Field.[ Tp_src; Ip_dst; Ip_proto; In_port; Eth_type; Ip_ttl ]))
  in
  frequency
    [ (6, gen_mask); (3, int_range 2 4 >>= plus_exact); (1, plus_exact 6) ]

(* Keys differ in the top bits of ip_src and tp_dst, so prefixes of
   three bits or more tell them apart and first matches spread over the
   scan instead of landing on the first broad mask. *)
let gen_churn_key =
  let open QCheck2.Gen in
  let* src_hi = int_range 0 7 and* src_lo = int_range 0 7 in
  let* dport_hi = int_range 0 7 and* dport_lo = int_range 0 7 in
  let* tp_src = int_range 0 3 in
  let* ip_dst = map Int32.of_int (int_range 0 1) in
  let* ip_proto = oneofl [ 6; 17 ] in
  let* in_port = int_range 0 1 in
  return
    (Flow.make ~in_port
       ~ip_src:(Int32.of_int ((src_hi lsl 29) lor src_lo))
       ~ip_dst ~ip_proto ~tp_src
       ~tp_dst:((dport_hi lsl 13) lor dport_lo) ())

(* A burst packet is a fresh key, or the key of the [k]th live entry
   (modulo their number), which matches at least that entry's mask. *)
type burst_pkt = Fresh of Flow.t | Live of int

let gen_churn_case =
  let open QCheck2.Gen in
  let gen_op =
    frequency
      [ (5,
         let* k = oneof [ int_range 1 20; int_range 100 250 ] in
         map (fun l -> Ins l) (list_size (return k) (pair gen_churn_mask gen_churn_key)));
        (* many keys under one mask: subtables that outgrow the exact
           filter recomputation on removal *)
        (2,
         let* mask = gen_churn_mask in
         let* keys = list_size (int_range 10 60) gen_churn_key in
         return (Ins (List.map (fun key -> (mask, key)) keys)));
        (2, map (fun r -> Reval r) (int_range 0 3));
        (1, return Resort);
        (1, return Flush) ]
  in
  let gen_pkt =
    oneof [ map (fun f -> Fresh f) gen_churn_key; map (fun k -> Live k) nat ]
  in
  (* Cases print nothing, and every shrinking step replays a whole
     churn history: a failure is reported unshrunk. *)
  no_shrink
    (let* max_entries = oneofl [ 40; 250; 100_000 ] in
     let* ops =
       list_size (int_range 4 12)
         (pair gen_op
            (let* n = oneofl [ 1; 1; 7; 32 ] in
             list_size (return n) gen_pkt))
     in
     return (max_entries, ops))

let burst_flows mf burst =
  let live = Array.of_list (Megaflow.entries mf) in
  Array.of_list
    (List.map
       (function
         | Fresh f -> f
         | Live k when Array.length live > 0 ->
           live.(k mod Array.length live).Megaflow.key
         | Live _ -> Flow.zero)
       burst)

let hinted_equals_reference ~now mf cache flows =
  let n = Array.length flows in
  let w = Megaflow.create_walk n in
  Megaflow.walk_batch mf ~hints:cache flows ~idx:(Array.init n Fun.id) ~n w;
  let first, match_at, n_masks = reference mf in
  let probes0 = Megaflow.total_probes mf in
  let sum_probes = ref 0 and ok = ref true in
  for j = 0 to n - 1 do
    let flow = flows.(j) in
    let h = Mask_cache.hint cache flow in
    let in_range = h >= 0 && h < n_masks in
    let expected, by_hint =
      match if in_range then match_at h flow else None with
      | Some e -> ((Some e, 1, h), true)
      | None ->
        let e, p, i = first flow in
        ((e, (if in_range then p + 1 else p), i), false)
    in
    let hits0 = Mask_cache.hits cache in
    Megaflow.commit_walk_hinted mf cache flow w j ~now ~pkt_len:1;
    let _, p, _ = expected in
    sum_probes := !sum_probes + p;
    ok :=
      !ok && same_slot w j expected
      && Mask_cache.hits cache - hits0 = (if by_hint then 1 else 0)
  done;
  !ok && Megaflow.total_probes mf - probes0 = !sum_probes

let prop_churn_matches_reference =
  qtest ~count:80 "churn: walk + commit ≡ reference after every op"
    gen_churn_case (fun (max_entries, ops) ->
      let mf = mk ~config:{ Megaflow.max_entries; idle_timeout = 3. } () in
      let cache = Mask_cache.create ~capacity:8 () in
      List.for_all
        (fun (step, (op, burst)) ->
          let now = float_of_int step in
          (match op with
           | Ins l ->
             List.iteri
               (fun i (mask, key) ->
                 ignore
                   (Megaflow.insert mf ~key ~mask ~action:(Action.Output i)
                      ~revision:(i mod 4) ~now ()))
               l
           | Reval r ->
             ignore
               (Megaflow.revalidate mf ~now
                  ~keep:(fun e -> e.Megaflow.revision <> r) ())
           | Resort -> Megaflow.resort_by_hits mf
           | Flush -> Megaflow.flush mf);
          let flows = burst_flows mf burst in
          walk_equals_reference ~now mf flows
          && hinted_equals_reference ~now mf cache flows)
        (List.mapi (fun step x -> (step, x)) ops))

(* The probe index costs nothing per walk: with 1024 attack-shaped masks
   (the subtable-major order and the packed probes), walks plus commits
   of 32-packet and one-packet bursts, hinted or not, allocate no minor
   words once warm. *)
let test_walk_allocation_free () =
  let mf = mk () in
  for i = 0 to 1023 do
    let mask =
      Mask.with_prefix
        (Mask.with_prefix (src_mask ((i mod 32) + 1)) Field.Tp_dst ((i / 32 mod 16) + 1))
        Field.Tp_src ((i / 512) + 1)
    in
    ignore
      (Megaflow.insert mf ~key:(Flow.make ~ip_src:0xFFFFFFFFl ~tp_src:0xFFFF ~tp_dst:0xFFFF ())
         ~mask ~action:Action.Drop ~revision:0 ~now:0. ())
  done;
  let flows = Array.init 32 (fun i -> Flow.make ~ip_src:(Int32.of_int i) ~tp_src:i ~tp_dst:0 ()) in
  (* half the burst hits late in the scan, half misses every mask *)
  let late = List.nth (Megaflow.masks mf) 1000 in
  Array.iteri
    (fun i f ->
      if i mod 2 = 0 then
        ignore (Megaflow.insert mf ~key:f ~mask:late ~action:Action.Drop ~revision:0 ~now:0. ()))
    flows;
  (* past the 128-subtable crossover, so every burst walk is packed *)
  Alcotest.(check int) "masks" 1024 (Megaflow.n_masks mf);
  let idx = Array.init 32 Fun.id in
  let w = Megaflow.create_walk 32 in
  let cache = Mask_cache.create () in
  (* [~hints:cache] would box a [Some] at every call *)
  let hints = Some cache in
  let round () =
    Megaflow.walk_batch mf flows ~idx ~n:32 w;
    for j = 0 to 31 do Megaflow.commit_walk mf w j ~now:0. ~pkt_len:1 done;
    Megaflow.walk_batch mf flows ~idx ~n:1 w;
    Megaflow.commit_walk mf w 0 ~now:0. ~pkt_len:1;
    Megaflow.walk_batch mf ?hints flows ~idx ~n:32 w;
    for j = 0 to 31 do
      Megaflow.commit_walk_hinted mf cache flows.(j) w j ~now:0. ~pkt_len:1
    done
  in
  round ();
  let overhead =
    let o0 = Gc.minor_words () in
    Gc.minor_words () -. o0
  in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do round () done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words" 0. (w1 -. w0 -. overhead)

(* Interned words belong to live subtables: 50 rounds of fresh random
   masks, each followed by a revalidation that evicts every earlier
   round, never leave the index holding more words than the live
   subtables' support sizes add up to. *)
let test_interned_words_bounded () =
  let mf = mk () in
  let rng = Random.State.make [| 13 |] in
  let fields = Field.[| Ip_src; Ip_dst; Tp_src; Tp_dst; Vlan; Ip_tos |] in
  for round = 1 to 50 do
    for i = 1 to 40 do
      let mask =
        Array.fold_left
          (fun m f ->
            if Random.State.int rng 3 = 0 then m
            else Mask.with_prefix m f (1 + Random.State.int rng (Field.width f)))
          Mask.empty fields
      in
      ignore
        (Megaflow.insert mf ~key:(Flow.make ~tp_dst:i ()) ~mask ~action:Action.Drop
           ~revision:round ~now:0. ())
    done;
    ignore (Megaflow.revalidate mf ~now:0. ~keep:(fun e -> e.Megaflow.revision = round) ());
    let live_support =
      List.fold_left (fun acc m -> acc + Array.length (Mask.support m)) 0 (Megaflow.masks mf)
    in
    if Megaflow.n_interned_words mf > live_support then
      Alcotest.failf "round %d: %d interned words for %d live support fields" round
        (Megaflow.n_interned_words mf) live_support
  done;
  Megaflow.flush mf;
  Alcotest.(check int) "flush drops every word" 0 (Megaflow.n_interned_words mf)

(* The subtable-major loop reads its burst unchecked; a bad index row
   or an oversized burst must be refused before it, in both orders. *)
let test_walk_rejects_bad_indices () =
  List.iter
    (fun n_masks ->
      let mf = mk () in
      for i = 1 to n_masks do
        ignore
          (Megaflow.insert mf ~key:(Flow.make ~tp_dst:i ())
             ~mask:(Mask.with_prefix (src_mask (i mod 33)) Field.Tp_dst (i / 33 + 1))
             ~action:Action.Drop ~revision:0 ~now:0. ())
      done;
      let flows = Array.make 4 Flow.zero in
      let w = Megaflow.create_walk 4 in
      let refused what f =
        match f () with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.failf "%s accepted at %d masks" what n_masks
      in
      refused "index past the flows" (fun () ->
          Megaflow.walk_batch mf flows ~idx:[| 0; 1; 4; 2 |] ~n:4 w);
      refused "burst past the index row" (fun () ->
          Megaflow.walk_batch mf flows ~idx:[| 0; 1 |] ~n:3 w);
      refused "burst past the result columns" (fun () ->
          Megaflow.walk_batch mf (Array.make 8 Flow.zero)
            ~idx:(Array.init 8 Fun.id) ~n:8 w))
    [ 4; 200 ]

let suite =
  [ Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
    Alcotest.test_case "miss probes all masks" `Quick test_miss_probes_all_masks;
    Alcotest.test_case "scan order = creation order" `Quick test_scan_order_is_creation_order;
    Alcotest.test_case "probe reporting post-retirement" `Quick test_probe_reporting_post_retirement;
    Alcotest.test_case "replace same key" `Quick test_replace_same_key;
    Alcotest.test_case "idle expiry" `Quick test_idle_expiry;
    Alcotest.test_case "usage refreshes idle" `Quick test_usage_refreshes_idle;
    Alcotest.test_case "revision keep" `Quick test_revision_keep;
    Alcotest.test_case "alive flag" `Quick test_alive_flag;
    Alcotest.test_case "flow limit eviction" `Quick test_flow_limit_eviction;
    Alcotest.test_case "flush" `Quick test_flush;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "masks listing" `Quick test_masks_listing;
    Alcotest.test_case "pp_entry" `Quick test_pp_entry;
    Alcotest.test_case "pp_entry never used" `Quick test_pp_entry_never_used;
    Alcotest.test_case "pp_entry wildcard-all" `Quick test_pp_entry_match_any;
    Alcotest.test_case "dump limit" `Quick test_dump_limit;
    Alcotest.test_case "has_mask" `Quick test_has_mask;
    Alcotest.test_case "subtable stats probe health" `Quick test_subtable_stats_probe_health;
    Alcotest.test_case "churn keeps survivors reachable" `Quick test_churn_keeps_survivors_reachable;
    Alcotest.test_case "generation tracks reorders" `Quick test_generation_tracks_reorders;
    Alcotest.test_case "walk rejects bad indices" `Quick test_walk_rejects_bad_indices;
    Alcotest.test_case "walk allocation-free at 1024 masks" `Quick test_walk_allocation_free;
    Alcotest.test_case "interned words bounded under churn" `Quick test_interned_words_bounded;
    prop_walk_matches_reference;
    prop_hinted_burst_is_one_at_a_time;
    prop_churn_matches_reference ]

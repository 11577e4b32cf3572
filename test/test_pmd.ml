open Pi_ovs
open Pi_classifier
open Helpers

module Prng = Pi_pkt.Prng

(* A rule set exercising all three cache layers: an allow prefix, a port
   rule and a default drop, so random traffic produces EMC hits,
   megaflow hits across several masks, and upcalls. *)
let rules =
  [ Rule.make ~priority:10
      ~pattern:(Pattern.with_ip_src Pattern.any (pfx "10.0.0.0/8"))
      ~action:(Action.Output 1) ();
    Rule.make ~priority:5
      ~pattern:(Pattern.with_tp_dst Pattern.any 80)
      ~action:(Action.Output 2) ();
    Rule.make ~priority:1 ~pattern:Pattern.any ~action:Action.Drop () ]

(* A small flow universe so the stream revisits flows (EMC hits) while
   still minting several megaflow masks. *)
let random_flow rng =
  let ip_src =
    if Prng.int rng 2 = 0 then
      Int32.logor 0x0A000000l (Int32.of_int (Prng.int rng 64))
    else Int32.of_int (Prng.int rng 64)
  in
  Flow.make ~in_port:(Prng.int rng 4) ~ip_src
    ~ip_dst:(Int32.of_int (Prng.int rng 16))
    ~ip_proto:(if Prng.int rng 2 = 0 then 6 else 17)
    ~tp_src:(Prng.int rng 32)
    ~tp_dst:(if Prng.int rng 3 = 0 then 80 else Prng.int rng 32)
    ()

let flow_stream ~seed n =
  let rng = Prng.create seed in
  Array.init n (fun _ -> (random_flow rng, 64 + Prng.int rng 1400))

let check_outcome i (a1, o1) (a2, o2) =
  if not (Action.equal a1 a2) || o1 <> o2 then
    Alcotest.failf "packet %d diverged: %s vs %s (probes %d vs %d)" i
      (Action.to_string a1) (Action.to_string a2) o1.Cost_model.mf_probes
      o2.Cost_model.mf_probes

(* --- 1-shard parity: the Pmd IS the seed datapath, bit for bit --- *)

let test_single_shard_parity () =
  let dp = Datapath.create (Prng.create 42L) () in
  let pmd =
    Pmd.create
      ~config:{ Pmd.default_config with Pmd.n_shards = 1; batch_size = 1 }
      (Prng.create 42L) ()
  in
  Datapath.install_rules dp rules;
  Pmd.install_rules pmd rules;
  let pkts = flow_stream ~seed:7L 600 in
  Array.iteri
    (fun i (f, pkt_len) ->
      let now = float_of_int i *. 0.01 in
      let a = Datapath.process dp ~now f ~pkt_len in
      let b = Pmd.process pmd ~now f ~pkt_len in
      check_outcome i a b;
      (* Revalidate both mid-stream: eviction behaviour must agree. *)
      if i = 299 then begin
        let ea = Datapath.revalidate dp ~now in
        let eb = Pmd.revalidate pmd ~now in
        Alcotest.(check int) "same evictions" ea eb
      end)
    pkts;
  Alcotest.(check int) "n_masks" (Datapath.n_masks dp) (Pmd.n_masks pmd);
  Alcotest.(check int) "n_megaflows" (Datapath.n_megaflows dp) (Pmd.n_megaflows pmd);
  Alcotest.(check int) "n_upcalls" (Datapath.n_upcalls dp) (Pmd.n_upcalls pmd);
  Alcotest.(check int) "n_processed" (Datapath.n_processed dp) (Pmd.n_processed pmd);
  Alcotest.(check (float 0.)) "cycles bit-identical" (Datapath.cycles_used dp)
    (Pmd.cycles_used pmd);
  Alcotest.(check int) "emc hits" (Emc.hits (Datapath.emc dp))
    (Emc.hits (Datapath.emc (Pmd.shard pmd 0)))

let test_single_shard_batch_parity () =
  (* Batched processing (default burst of 32, zero batch cost) must not
     change a single result either. *)
  let dp = Datapath.create (Prng.create 9L) () in
  let pmd = Pmd.create (Prng.create 9L) () in
  Datapath.install_rules dp rules;
  Pmd.install_rules pmd rules;
  let pkts = flow_stream ~seed:3L 500 in
  let expected =
    Array.map (fun (f, pkt_len) -> Datapath.process dp ~now:1. f ~pkt_len) pkts
  in
  let got = Pmd.process_burst pmd ~now:1. pkts in
  Array.iteri (fun i e -> check_outcome i e got.(i)) expected;
  Alcotest.(check (float 0.)) "cycles bit-identical" (Datapath.cycles_used dp)
    (Pmd.cycles_used pmd);
  Alcotest.(check int) "bursts of 32" ((500 + 31) / 32) (Pmd.n_batches pmd)

(* --- sequential ≡ parallel with several shards --- *)

let run_sharded ~parallel =
  let pmd =
    Pmd.create
      ~config:{ Pmd.default_config with Pmd.n_shards = 4; parallel }
      (Prng.create 42L) ()
  in
  Pmd.install_rules pmd rules;
  let out1 = Pmd.process_burst pmd ~now:0. (flow_stream ~seed:7L 400) in
  ignore (Pmd.revalidate pmd ~now:0.);
  let out2 = Pmd.process_burst pmd ~now:20. (flow_stream ~seed:8L 400) in
  (pmd, Array.append out1 out2)

let test_parallel_parity () =
  let pmd_seq, out_seq = run_sharded ~parallel:false in
  let pmd_par, out_par = run_sharded ~parallel:true in
  Array.iteri (fun i e -> check_outcome i e out_par.(i)) out_seq;
  Alcotest.(check (float 0.)) "cycles bit-identical"
    (Pmd.cycles_used pmd_seq) (Pmd.cycles_used pmd_par);
  Alcotest.(check int) "n_masks" (Pmd.n_masks pmd_seq) (Pmd.n_masks pmd_par);
  Alcotest.(check int) "n_upcalls" (Pmd.n_upcalls pmd_seq) (Pmd.n_upcalls pmd_par);
  Array.iteri
    (fun i m ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d masks" i)
        m
        (Pmd.per_shard_masks pmd_par).(i))
    (Pmd.per_shard_masks pmd_seq)

(* --- steering --- *)

let test_steering_spreads_and_is_stable () =
  let pmd =
    Pmd.create ~config:{ Pmd.default_config with Pmd.n_shards = 4 }
      (Prng.create 1L) ()
  in
  let rng = Prng.create 11L in
  let seen = Array.make 4 0 in
  for _ = 1 to 512 do
    let f = random_flow rng in
    let s = Pmd.shard_of pmd f in
    Alcotest.(check int) "stable" s (Pmd.shard_of pmd f);
    seen.(s) <- seen.(s) + 1
  done;
  Array.iteri
    (fun i n ->
      if n = 0 then Alcotest.failf "shard %d never selected over 512 flows" i)
    seen

(* --- batch accounting edge cases --- *)

let batch_config =
  { Pmd.default_config with Pmd.batch_size = 32; batch_cycles = 100. }

let test_empty_batch_is_noop () =
  let pmd = Pmd.create ~config:batch_config (Prng.create 1L) () in
  Pmd.install_rules pmd rules;
  let out = Pmd.process_burst pmd ~now:0. [||] in
  Alcotest.(check int) "no results" 0 (Array.length out);
  Alcotest.(check int) "no bursts" 0 (Pmd.n_batches pmd);
  Alcotest.(check (float 0.)) "no overhead" 0. (Pmd.batch_overhead_cycles pmd);
  Alcotest.(check int) "nothing processed" 0 (Pmd.n_processed pmd)

let test_short_final_burst_pays_once () =
  (* 5 packets against a burst size of 32: one (short) burst, one fixed
     charge. *)
  let pmd = Pmd.create ~config:batch_config (Prng.create 1L) () in
  Pmd.install_rules pmd rules;
  ignore (Pmd.process_burst pmd ~now:0. (flow_stream ~seed:5L 5));
  Alcotest.(check int) "one burst" 1 (Pmd.n_batches pmd);
  Alcotest.(check (float 0.)) "one charge" 100. (Pmd.batch_overhead_cycles pmd)

let test_burst_chopping () =
  (* 70 packets, burst 32: 32 + 32 + 6 = 3 bursts. *)
  let pmd = Pmd.create ~config:batch_config (Prng.create 1L) () in
  Pmd.install_rules pmd rules;
  ignore (Pmd.process_burst pmd ~now:0. (flow_stream ~seed:5L 70));
  Alcotest.(check int) "three bursts" 3 (Pmd.n_batches pmd);
  Alcotest.(check (float 0.)) "three charges" 300. (Pmd.batch_overhead_cycles pmd);
  (* The amortised overhead is part of the shard's cycle account. *)
  let dp_only = Datapath.cycles_used (Pmd.shard pmd 0) in
  Alcotest.(check (float 0.)) "overhead included in cycles_used"
    (dp_only +. 300.) (Pmd.cycles_used pmd)

let test_invalid_config () =
  (match
     Pmd.create ~config:{ Pmd.default_config with Pmd.n_shards = 0 }
       (Prng.create 1L) ()
   with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "n_shards 0 should raise");
  match
    Pmd.create ~config:{ Pmd.default_config with Pmd.batch_size = 0 }
      (Prng.create 1L) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "batch_size 0 should raise"

(* --- pipeline ≡ deterministic: the differential property --- *)

(* Fig. 3-style traffic: a benign pool the caches absorb, interleaved
   with covert bursts whose distinct source/destination ports mint a
   fresh megaflow mask shape per packet — the policy-injection load. *)
let fig3_stream ~seed n =
  let rng = Prng.create seed in
  Array.init n (fun _ ->
      if Prng.int rng 3 = 0 then
        (* covert packet: hits the tp_dst rule region with churning
           ports, driving upcalls and mask growth *)
        ( Flow.make ~in_port:(Prng.int rng 4)
            ~ip_src:(Int32.logor 0x0A000000l (Int32.of_int (Prng.int rng 1024)))
            ~ip_dst:3l ~ip_proto:17
            ~tp_src:(Prng.int rng 4096)
            ~tp_dst:(Prng.int rng 4096) (),
          100 )
      else (random_flow rng, 64 + Prng.int rng 1400))

let mk_pmd ~mode ?(dp = Datapath.default_config) () =
  Pmd.create
    ~config:
      { Pmd.default_config with
        Pmd.n_shards = 4; batch_cycles = 100.; mode; dp }
    (Prng.create 42L) ()

(* Drive both engines through the same schedule of random bursts (with
   revalidation and a mid-run policy change) and insist on identical
   per-packet results and identical final accounting. *)
let run_differential ~rounds ~per_round ~dp ~check_packets =
  let det = mk_pmd ~mode:Pmd.Deterministic ~dp () in
  let pipe = mk_pmd ~mode:Pmd.Pipeline ~dp () in
  Fun.protect ~finally:(fun () -> Pmd.close pipe) @@ fun () ->
  Pmd.install_rules det rules;
  Pmd.install_rules pipe rules;
  for r = 0 to rounds - 1 do
    let now = float_of_int r in
    let pkts = fig3_stream ~seed:(Int64.of_int (100 + r)) per_round in
    let a = Pmd.process_burst det ~now pkts in
    let b = Pmd.process_burst pipe ~now pkts in
    ignore (Pmd.service_upcalls det ~now);
    ignore (Pmd.service_upcalls pipe ~now);
    if check_packets then
      Array.iteri (fun i e -> check_outcome i e b.(i)) a;
    if r = rounds / 2 then begin
      (* policy change mid-run: install quiesces the pipeline, and the
         next revalidation must evict identically in both engines *)
      Pmd.install_rules det rules;
      Pmd.install_rules pipe rules;
      let ea = Pmd.revalidate det ~now in
      let eb = Pmd.revalidate pipe ~now in
      Alcotest.(check int) "same evictions" ea eb
    end
  done;
  (det, pipe)

(* What must always converge: the cache state and the batch accounting.
   [exact] additionally pins upcall counts and cycles — true only under
   synchronous upcalls, where the pipeline is per-packet bit-for-bit;
   with deferral the handler may resolve a miss before its duplicates
   arrive, legitimately shrinking the upcall count (DESIGN.md §14). *)
let check_converged ?(exact = false) det pipe =
  Alcotest.(check int) "n_masks" (Pmd.n_masks det) (Pmd.n_masks pipe);
  Alcotest.(check int) "n_megaflows" (Pmd.n_megaflows det)
    (Pmd.n_megaflows pipe);
  if exact then begin
    Alcotest.(check int) "n_upcalls" (Pmd.n_upcalls det) (Pmd.n_upcalls pipe);
    Alcotest.(check (float 0.)) "cycles bit-identical" (Pmd.cycles_used det)
      (Pmd.cycles_used pipe)
  end;
  Alcotest.(check int) "n_processed" (Pmd.n_processed det)
    (Pmd.n_processed pipe);
  Alcotest.(check int) "n_batches" (Pmd.n_batches det) (Pmd.n_batches pipe);
  Alcotest.(check (float 0.)) "batch overhead bit-identical"
    (Pmd.batch_overhead_cycles det)
    (Pmd.batch_overhead_cycles pipe);
  Array.iteri
    (fun i m ->
      Alcotest.(check int) (Printf.sprintf "shard %d masks" i) m
        (Pmd.per_shard_masks pipe).(i))
    (Pmd.per_shard_masks det)

let test_pipeline_parity_sync () =
  (* Synchronous upcalls: misses classify inline on the worker, so the
     pipeline is per-packet bit-for-bit the deterministic oracle. *)
  let det, pipe =
    run_differential ~rounds:6 ~per_round:300 ~dp:Datapath.default_config
      ~check_packets:true
  in
  check_converged ~exact:true det pipe

let test_pipeline_parity_deferred () =
  (* Deferred upcalls: the handler domain interleaves with the workers,
     so per-packet outcomes legitimately differ (a miss may resolve
     before a later duplicate arrives). The converged state after
     service_upcalls must still agree — deep queue, no budget, so
     neither engine drops. *)
  let dp =
    { Datapath.default_config with
      Datapath.upcall_queue = Upcall_queue.bounded 65536 }
  in
  let det, pipe =
    run_differential ~rounds:6 ~per_round:300 ~dp ~check_packets:false
  in
  Alcotest.(check int) "no deterministic drops" 0 (Pmd.upcall_drops det);
  Alcotest.(check int) "no pipeline drops" 0 (Pmd.upcall_drops pipe);
  Alcotest.(check int) "nothing pending (det)" 0 (Pmd.pending_upcalls det);
  Alcotest.(check int) "nothing pending (pipe)" 0 (Pmd.pending_upcalls pipe);
  check_converged det pipe

let test_pipeline_single_packet_and_close () =
  let det = mk_pmd ~mode:Pmd.Deterministic () in
  let pipe = mk_pmd ~mode:Pmd.Pipeline () in
  Pmd.install_rules det rules;
  Pmd.install_rules pipe rules;
  let pkts = flow_stream ~seed:21L 200 in
  Array.iteri
    (fun i (f, pkt_len) ->
      let now = float_of_int i *. 0.01 in
      let a = Pmd.process det ~now f ~pkt_len in
      let b = Pmd.process pipe ~now f ~pkt_len in
      check_outcome i a b)
    pkts;
  Alcotest.(check int) "process charges no bursts" 0 (Pmd.n_batches pipe);
  Alcotest.(check (float 0.)) "cycles bit-identical" (Pmd.cycles_used det)
    (Pmd.cycles_used pipe);
  Pmd.close pipe;
  Pmd.close pipe;  (* idempotent *)
  Alcotest.(check bool) "stats readable after close" true
    (Pmd.n_processed pipe = 200);
  (match Pmd.process_burst pipe ~now:99. pkts with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "process_burst after close should raise");
  Pmd.close det  (* no-op in deterministic mode *)

(* Run [f] on its own domain and wait at most [secs] for it: a pipeline
   that hangs fails the test instead of stalling the suite. *)
let within ~secs f =
  let res = Atomic.make None in
  let d = Domain.spawn (fun () -> Atomic.set res (Some (try Ok (f ()) with e -> Error e))) in
  let deadline = Unix.gettimeofday () +. secs in
  while Atomic.get res = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  match Atomic.get res with
  | Some r -> Domain.join d; r
  | None -> Alcotest.failf "no answer within %.0f s: the pipeline hung" secs

let boom_dp =
  { Datapath.default_config with
    Datapath.megaflow_transform = Some (fun _ -> failwith "boom") }

let expect_boom what = function
  | Error (Failure m) when m = "boom" -> ()
  | Error e -> Alcotest.failf "%s raised %s, not the fault" what (Printexc.to_string e)
  | Ok () -> Alcotest.failf "%s returned despite the fault" what

(* A fault in a pipeline domain is raised in the driving domain, and the
   engine still closes (twice, the second time a no-op). *)
let test_pipeline_fault_raises () =
  (* synchronous upcalls: the worker's own install raises *)
  let pipe =
    Pmd.create
      ~config:{ Pmd.default_config with Pmd.mode = Pmd.Pipeline; dp = boom_dp }
      (Prng.create 1L) ()
  in
  Pmd.install_rules pipe rules;
  let f = Flow.make ~ip_src:(ip "10.0.0.1") () in
  expect_boom "process"
    (within ~secs:20. (fun () -> ignore (Pmd.process pipe ~now:0. f ~pkt_len:64)));
  (match within ~secs:20. (fun () -> Pmd.close pipe) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "close re-raised %s" (Printexc.to_string e));
  Pmd.close pipe;
  (* deferred upcalls, two shards: the fault happens while a worker
     applies a verdict after the burst returned, and surfaces at the
     next wait *)
  let pipe =
    Pmd.create
      ~config:
        { Pmd.default_config with
          Pmd.n_shards = 2; mode = Pmd.Pipeline;
          dp = { boom_dp with Datapath.upcall_queue = Upcall_queue.bounded 64 } }
      (Prng.create 1L) ()
  in
  Pmd.install_rules pipe rules;
  let b = Batch.create ~capacity:32 in
  Batch.fill b (flow_stream ~seed:3L 32);
  expect_boom "service_upcalls"
    (within ~secs:20. (fun () ->
         Pmd.process_batch pipe b ~now:0.;
         ignore (Pmd.service_upcalls pipe ~now:0.)));
  Pmd.close pipe;
  Pmd.close pipe

let test_pipeline_reset_stats () =
  (* reset_stats quiesces, drains and zeroes: the next window starts
     clean and the engines stay in lockstep afterwards. *)
  let dp =
    { Datapath.default_config with
      Datapath.upcall_queue = Upcall_queue.bounded 65536 }
  in
  let det = mk_pmd ~mode:Pmd.Deterministic ~dp () in
  let pipe = mk_pmd ~mode:Pmd.Pipeline ~dp () in
  Fun.protect ~finally:(fun () -> Pmd.close pipe) @@ fun () ->
  Pmd.install_rules det rules;
  Pmd.install_rules pipe rules;
  let pkts = fig3_stream ~seed:77L 200 in
  ignore (Pmd.process_burst det ~now:0. pkts);
  ignore (Pmd.process_burst pipe ~now:0. pkts);
  (* converge the caches before resetting, so the second window starts
     from identical state in both engines *)
  ignore (Pmd.service_upcalls det ~now:0.);
  ignore (Pmd.service_upcalls pipe ~now:0.);
  Pmd.reset_stats det;
  Pmd.reset_stats pipe;
  Alcotest.(check int) "pipe counters zeroed" 0 (Pmd.n_processed pipe);
  Alcotest.(check int) "pipe pending drained" 0 (Pmd.pending_upcalls pipe);
  Alcotest.(check (float 0.)) "pipe cycles zeroed" 0. (Pmd.cycles_used pipe);
  let pkts2 = fig3_stream ~seed:78L 200 in
  ignore (Pmd.process_burst det ~now:1. pkts2);
  ignore (Pmd.process_burst pipe ~now:1. pkts2);
  ignore (Pmd.service_upcalls det ~now:1.);
  ignore (Pmd.service_upcalls pipe ~now:1.);
  Alcotest.(check int) "windows agree: processed" (Pmd.n_processed det)
    (Pmd.n_processed pipe);
  Alcotest.(check int) "windows agree: masks" (Pmd.n_masks det)
    (Pmd.n_masks pipe);
  Alcotest.(check int) "windows agree: megaflows" (Pmd.n_megaflows det)
    (Pmd.n_megaflows pipe)

(* --- per-shard telemetry --- *)

let test_per_shard_metrics () =
  let metrics = Pi_telemetry.Metrics.create () in
  let pmd =
    Pmd.create ~config:{ Pmd.default_config with Pmd.n_shards = 2 }
      ~telemetry:(Pi_telemetry.Ctx.v ~metrics ()) (Prng.create 1L) ()
  in
  Pmd.install_rules pmd rules;
  ignore (Pmd.process_burst pmd ~now:0. (flow_stream ~seed:5L 100));
  (* Each shard reports into its own registry; packet counters across
     the registries must account for every packet exactly once. *)
  let total = ref 0 in
  for s = 0 to 1 do
    match Pmd.shard_metrics pmd s with
    | Some m ->
      (match Pi_telemetry.Metrics.find_counter m "packets" with
       | Some v -> total := !total + v
       | None -> Alcotest.failf "shard %d has no packets counter" s)
    | None -> Alcotest.failf "shard %d has no registry" s
  done;
  Alcotest.(check int) "every packet counted once" 100 !total

let suite =
  [ Alcotest.test_case "1-shard parity with Datapath" `Quick test_single_shard_parity;
    Alcotest.test_case "1-shard batched parity" `Quick test_single_shard_batch_parity;
    Alcotest.test_case "sequential = parallel (4 shards)" `Quick test_parallel_parity;
    Alcotest.test_case "steering spreads and is stable" `Quick test_steering_spreads_and_is_stable;
    Alcotest.test_case "empty batch is a no-op" `Quick test_empty_batch_is_noop;
    Alcotest.test_case "short final burst pays once" `Quick test_short_final_burst_pays_once;
    Alcotest.test_case "burst chopping" `Quick test_burst_chopping;
    Alcotest.test_case "invalid config" `Quick test_invalid_config;
    Alcotest.test_case "pipeline = deterministic (sync upcalls)" `Quick
      test_pipeline_parity_sync;
    Alcotest.test_case "pipeline converges (deferred upcalls)" `Quick
      test_pipeline_parity_deferred;
    Alcotest.test_case "pipeline single-packet parity and close" `Quick
      test_pipeline_single_packet_and_close;
    Alcotest.test_case "pipeline reset_stats" `Quick test_pipeline_reset_stats;
    Alcotest.test_case "pipeline fault raises, not hangs" `Quick
      test_pipeline_fault_raises;
    Alcotest.test_case "per-shard metrics" `Quick test_per_shard_metrics ]

(* The closed-loop attack workload, and the benign host on which every
   traced run compares the engines.

   One driving domain generates a 32-packet burst, hands it to
   [Dataplane.process_batch], and generates the next only after the call
   returns; [service_upcalls] follows every burst, [revalidate] every
   simulated second. Only those three calls are timed. Generation and
   the oracle check run between them, outside the timed intervals. *)

open Pi_ovs

(* The benign host of the engine comparison: two RSS shards on the
   sequential deterministic engine. *)
let benign_config = { Pmd.default_config with Pmd.n_shards = 2; parallel = false }

let cpu_hz = Datapath.default_config.Datapath.cost.Cost_model.cpu_hz

(* One simulated second of victim traffic settles the caches. *)
let warmup_bursts = int_of_float (Load.victim_pps /. float_of_int Load.burst)

type host = {
  dp : Dataplane.t;
  load : Load.t;
  b : Batch.t;
  expect : Action.t array;
  mutable checked : int;
  mutable mismatches : int;
  compile_ns : int;
  install_ns : int;
  mutable setup_ns : int;
  mutable inject_ns : int;
  mutable inject_upcalls : int;
  mutable inject_slow_probes : int;
}

(* Timings gathered by one measured phase. *)
type phase = {
  bursts : Stats.buf;  (* process_batch wall time per burst, ns *)
  mutable pkts : int;
  mutable busy_ns : int;  (* process_batch + service_upcalls + revalidate *)
  mutable batch_ns : int;
  mutable upcall_ns : int;
  mutable reval_ns : int;
  mutable reval_calls : int;
  mutable evicted : int;
}

let phase () =
  { bursts = Stats.buf (); pkts = 0; busy_ns = 0; batch_ns = 0; upcall_ns = 0;
    reval_ns = 0; reval_calls = 0; evicted = 0 }

let check h =
  h.mismatches <- h.mismatches + Load.check h.b h.expect;
  h.checked <- h.checked + Batch.length h.b

(* One closed-loop step. *)
let step ?spans ?shard_pkts ?phase h =
  Load.fill h.load h.b h.expect;
  let now = h.load.Load.now in
  let w0 = Gc.minor_words () in
  let t0 = Spans.now_ns () in
  Dataplane.process_batch h.dp h.b ~now;
  let t1 = Spans.now_ns () in
  let w1 = Gc.minor_words () in
  ignore (Dataplane.service_upcalls h.dp ~now);
  let t2 = Spans.now_ns () in
  let n = Batch.length h.b in
  (match phase with
   | Some ph ->
     Stats.push ph.bursts (t1 - t0);
     ph.pkts <- ph.pkts + n;
     ph.busy_ns <- ph.busy_ns + (t2 - t0);
     ph.batch_ns <- ph.batch_ns + (t1 - t0);
     ph.upcall_ns <- ph.upcall_ns + (t2 - t1)
   | None -> ());
  (match spans with
   | Some sp ->
     Traced_dp.record_batch sp "process_batch" h.b ~start:t0 ~stop:t1
       ~words:(w1 -. w0);
     Spans.record sp "service_upcalls" ~start:t1 ~stop:t2 ()
   | None -> ());
  (match shard_pkts with
   | Some c ->
     for i = 0 to n - 1 do
       let s = Dataplane.shard_of h.dp (Batch.flow h.b i) in
       c.(s) <- c.(s) + 1
     done
   | None -> ());
  check h;
  if Load.second_due h.load then begin
    let t3 = Spans.now_ns () in
    let ev = Dataplane.revalidate h.dp ~now in
    let t4 = Spans.now_ns () in
    (match phase with
     | Some ph ->
       ph.busy_ns <- ph.busy_ns + (t4 - t3);
       ph.reval_ns <- ph.reval_ns + (t4 - t3);
       ph.reval_calls <- ph.reval_calls + 1;
       ph.evicted <- ph.evicted + ev
     | None -> ());
    match spans with
    | Some sp -> Spans.record sp "revalidate" ~start:t3 ~stop:t4 ~items:ev ()
    | None -> ()
  end

(* The covert injection round: the attacker's policy lands (a policy
   change, so the caches are revalidated), then all 8192 covert flows
   arrive once, in bursts — one upcall and one megaflow install each. *)
let inject h ~seed =
  let rules = Host.attacker_rules () in
  let flows = Host.covert_flows ~seed:(Int64.of_int seed) in
  let now = h.load.Load.now in
  let u0 = (Dataplane.stats h.dp).Dataplane.upcalls in
  let t0 = Spans.now_ns () in
  Dataplane.install_rules h.dp rules;
  ignore (Dataplane.revalidate h.dp ~now);
  let busy = ref (Spans.now_ns () - t0) in
  Load.set_rules h.load (Host.host_rules () @ rules);
  Load.arm_covert h.load flows;
  let slow = ref 0 in
  let n = Array.length flows in
  let lo = ref 0 in
  while !lo < n do
    let k = min Load.burst (n - !lo) in
    Load.fill_covert h.load h.b h.expect ~lo:!lo ~n:k;
    let t1 = Spans.now_ns () in
    Dataplane.process_batch h.dp h.b ~now;
    busy := !busy + (Spans.now_ns () - t1);
    for i = 0 to k - 1 do
      slow := !slow + h.b.Batch.slow_probes.(i)
    done;
    check h;
    lo := !lo + k
  done;
  h.inject_ns <- !busy;
  h.inject_upcalls <- (Dataplane.stats h.dp).Dataplane.upcalls - u0;
  h.inject_slow_probes <- !slow

(* A host with no covert stream, ready for measurement: policy compile,
   dataplane create, rule install, traffic pool and warm-up. *)
let host ~config ~seed =
  let t0 = Spans.now_ns () in
  let rules = Host.host_rules () in
  let t1 = Spans.now_ns () in
  let dp =
    Dataplane.create (Dataplane.pmd ~config ())
      (Pi_pkt.Prng.create (Int64.of_int seed))
  in
  let t2 = Spans.now_ns () in
  Dataplane.install_rules dp rules;
  let t3 = Spans.now_ns () in
  let load = Load.create ~seed ~rules in
  let t4 = Spans.now_ns () in
  let h =
    { dp;
      load;
      b = Batch.create ~capacity:Load.burst;
      expect = Array.make Load.burst Action.Drop;
      checked = 0;
      mismatches = 0;
      compile_ns = t1 - t0;
      install_ns = t3 - t2;
      setup_ns = 0;
      inject_ns = 0;
      inject_upcalls = 0;
      inject_slow_probes = 0 }
  in
  (* Set-up time counts the program's calls only: generating the
     warm-up traffic and checking its verdicts are the benchmark's. *)
  let warm = phase () in
  for _ = 1 to warmup_bursts do step ~phase:warm h done;
  h.setup_ns <- t4 - t0 + warm.busy_ns;
  h

(* The attack host: the default Pmd, warmed up, after the injection
   round. *)
let attack_host ~seed =
  let h = host ~config:Pmd.default_config ~seed in
  inject h ~seed;
  h.setup_ns <- h.setup_ns + h.inject_ns;
  h

let close h = Dataplane.close h.dp

(* Run closed-loop steps for [seconds] of wall time, adding their
   timings to [ph]. *)
let measure ?spans ?shard_pkts ?(ph = phase ()) h ~seconds =
  let deadline = Spans.now_ns () + int_of_float (seconds *. 1e9) in
  while Spans.now_ns () < deadline do
    step ?spans ?shard_pkts ~phase:ph h
  done;
  ph

type setup_times = { setup : float; compile : float; install : float; inj : float }

let times_of h =
  { setup = float_of_int h.setup_ns;
    compile = float_of_int h.compile_ns;
    install = float_of_int h.install_ns;
    inj = float_of_int h.inject_ns }

(* Every run sets up [hosts] attack hosts from the same seed, one after
   the other, each carrying the 8192-upcall injection round (~3 s). The
   untraced run measures each for an equal share of [seconds] before it
   sets up the next, so the set-ups and the measured bursts spread over
   the whole run, and no one host's memory layout sets the figures. The
   traced run measures the last host only. Set-up figures are medians
   over the hosts. *)
let hosts = 3

(* Set up an attack host, hand it to [f], and close it. *)
let with_host ~seed f =
  Gc.full_major ();
  let h = attack_host ~seed in
  Fun.protect ~finally:(fun () -> close h) (fun () -> f h)

(* After the injection round the victim's EMC refills at its insertion
   probability while misses walk the full mask set; measuring starts
   once that transient is over. *)
let settle_bursts = 1500

let settle h = for _ = 1 to settle_bursts do step h done

let us ns = ns /. 1e3
let mpps ~pkts ~ns = Stats.ratio (float_of_int pkts *. 1e3) (float_of_int ns)
let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* p50 and the tail of burst times [lo, lo + n), in µs, with the
   percentile the tail is. *)
let burst_stats ph ~lo ~n =
  let s = Array.sub ph.bursts.Stats.a lo n in
  Array.sort compare s;
  let p50 = us (float_of_int (Stats.percentile s 50)) in
  match Stats.tail_percentile n with
  | Some p -> (p50, p, us (float_of_int (Stats.percentile s p)))
  | None -> failwith "too few bursts for a tail percentile; raise --seconds"

(* The burst p50 and tail are medians over up to [max_slices]
   consecutive slices of at least [min_slice] bursts (each enough for a
   p99). On a shared host the speed of the same code switches between
   levels every second or so with the load of other tenants; a few
   seconds of heavy interference then move a few slices, not the
   reported figure. Throughput stays a whole-run ratio, which averages
   over the switches. *)
let max_slices = 20
let min_slice = 2000

type bursts = { p50 : float; pct : int; tail : float; slices : int; per_slice : int }

let burst_summary ph =
  let n = ph.bursts.Stats.n in
  let k = max 1 (min max_slices (n / min_slice)) in
  let w = n / k in
  let per = List.init k (fun i -> burst_stats ph ~lo:(i * w) ~n:w) in
  let med f = Stats.median_float (List.map f per) in
  { p50 = med (fun (p50, _, _) -> p50);
    pct = (let _, p, _ = List.hd per in p);
    tail = med (fun (_, _, tail) -> tail);
    slices = k;
    per_slice = w }

let failed h = h.mismatches + (Dataplane.stats h.dp).Dataplane.upcall_drops

(* What the untraced run keeps of each host. *)
type tally = {
  times : setup_times;
  checked : int;
  mismatches : int;
  failures : int;
  upcalls : int;  (* of the injection round *)
}

let tally h =
  { times = times_of h;
    checked = h.checked;
    mismatches = h.mismatches;
    failures = failed h;
    upcalls = h.inject_upcalls }

let e2e tallies ph ~seconds =
  let times = List.map (fun t -> t.times) tallies in
  let total f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let checked = total (fun t -> t.checked)
  and mismatches = total (fun t -> t.mismatches)
  and failed = total (fun t -> t.failures) in
  let med f = Stats.median_float (List.map f times) in
  let n = ph.bursts.Stats.n in
  let bs = burst_summary ph in
  let thr = mpps ~pkts:ph.pkts ~ns:ph.busy_ns in
  let w = bs.per_slice in
  let setup_s = med (fun t -> t.setup) /. 1e9 in
  let lines =
    [ Printf.sprintf "attack: %d packets in %d bursts on %d hosts over %.1f s, %.3f s busy"
        ph.pkts n hosts seconds (float_of_int ph.busy_ns /. 1e9);
      Printf.sprintf "  throughput_mpps  %.4f Mpps" thr;
      Printf.sprintf "  burst_p50_us     %.3f us (median over %d slices of n=%d)"
        bs.p50 bs.slices w;
      Printf.sprintf "  burst_p%d_us     %.3f us (median over %d slices of n=%d, %d beyond)"
        bs.pct bs.tail bs.slices w (w - Stats.rank ~n:w bs.pct);
      Printf.sprintf "  inject_s         %.4f s (%d upcalls, median of %d)"
        (med (fun t -> t.inj) /. 1e9) (List.hd tallies).upcalls (List.length times);
      Printf.sprintf "  setup_s          %.4f s (median of %d)" setup_s
        (List.length times);
      Printf.sprintf "  heap_peak_mb     %.2f MB" (heap_peak_mb ());
      Printf.sprintf
        "  error_rate       %g ratio (%d of %d packets: %d wrong verdicts, %d upcall drops)"
        (Stats.ratio (float_of_int failed) (float_of_int checked))
        failed checked mismatches (failed - mismatches) ]
  in
  { Report.attempted = checked;
    failed;
    lines;
    metrics =
      [ Report.m "throughput_mpps" "Mpps" thr;
        Report.m "step_p50_us" "us" bs.p50;
        Report.m "setup_s" "s" setup_s ] }

(* The engine comparison every traced run makes on the benign traffic
   of its seed, each engine for a sixth of [seconds]: RSS steering over
   the 2-shard [benign_config] Pmd, and the pipeline engine's handoff
   cost — the burst p50 of a 1-shard Pmd on the pipeline engine (a
   persistent worker domain behind SPSC rings, synchronous upcalls;
   with the driving domain, two) minus that of the deterministic one. *)
type engines = {
  shard_skew : float;
  pipe_p50 : float;
  det_p50 : float;
  e_checked : int;
  e_mismatches : int;
}

let engines ~seed ~seconds =
  let checked = ref 0 and mismatches = ref 0 in
  let p50 ?shard_pkts config =
    let r = host ~config ~seed in
    Fun.protect ~finally:(fun () -> close r) @@ fun () ->
    let p = (burst_summary (measure ?shard_pkts r ~seconds:(seconds /. 6.))).p50 in
    checked := !checked + r.checked;
    mismatches := !mismatches + failed r;
    p
  in
  let shard_pkts = Array.make 2 0 in
  ignore (p50 ~shard_pkts benign_config);
  let pipe_p50 = p50 { Pmd.default_config with Pmd.mode = Pmd.Pipeline } in
  let det_p50 = p50 Pmd.default_config in
  let a = Array.map float_of_int shard_pkts in
  let mean = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) in
  { shard_skew = Stats.ratio (Array.fold_left Float.max 0. a) mean;
    pipe_p50;
    det_p50;
    e_checked = !checked;
    e_mismatches = !mismatches }

let engine_metrics e =
  [ Report.m "pmd.shard_skew" "ratio" e.shard_skew;
    Report.m "pipeline.burst_minus_benign_us" "us" (e.pipe_p50 -. e.det_p50) ]

let engine_line e =
  Printf.sprintf
    "  benign traffic, 1-shard burst p50: pipeline engine %.3f us, deterministic %.3f us (%.2fx); 2-shard skew %.4f"
    e.pipe_p50 e.det_p50 (Stats.ratio e.pipe_p50 e.det_p50) e.shard_skew

(* The traced run alternates untraced and traced slices of [slice_s] on
   the same host, in ABBA order, so drift in the host's speed falls on
   both alike. The tracing overhead is the median over the pairs of the
   traced busy time per packet over the untraced one. Span counts come
   from the traced slices; counter deltas from both. *)
let slice_s = 1.

let traced h times ~seed ~seconds =
  let ph_u = phase () and ph = phase () in
  let spans = Spans.create () in
  let s0 = Dataplane.stats h.dp in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let per_pkt p f =
    let busy = p.busy_ns and pkts = p.pkts in
    f ();
    Stats.ratio (float_of_int (p.busy_ns - busy)) (float_of_int (p.pkts - pkts))
  in
  let untraced () = per_pkt ph_u (fun () -> ignore (measure ~ph:ph_u h ~seconds:slice_s))
  and traced () = per_pkt ph (fun () -> ignore (measure ~spans ~ph h ~seconds:slice_s)) in
  let pairs = max 1 (int_of_float (seconds /. (2. *. slice_s))) in
  let overheads =
    List.init pairs (fun i ->
        let u, t =
          if i mod 2 = 0 then
            let u = untraced () in
            (u, traced ())
          else
            let t = traced () in
            (untraced (), t)
        in
        100. *. (Stats.ratio t u -. 1.))
  in
  let gc1 = (Gc.quick_stat ()).Gc.major_collections in
  let s1 = Dataplane.stats h.dp in
  let d f = float_of_int (f s1 - f s0) in
  let emc_hits = d (fun s -> s.Dataplane.emc_hits)
  and emc_misses = d (fun s -> s.Dataplane.emc_misses)
  and upcalls = d (fun s -> s.Dataplane.upcalls) in
  let all_pkts = float_of_int (ph.pkts + ph_u.pkts) in
  let all_batch_ns = float_of_int (ph.batch_ns + ph_u.batch_ns) in
  let pkts = float_of_int ph.pkts in
  let batch = Option.get (Spans.find spans "process_batch") in
  let e = engines ~seed ~seconds in
  let med f = Stats.median_float (List.map f times) in
  let inj_s = med (fun t -> t.inj) /. 1e9 in
  let path = Filename.concat (Report.out_dir ()) (Printf.sprintf "spans-attack-%d.tsv" seed) in
  Spans.write spans ~path;
  let metrics =
    [ Report.m "emc.hit_ratio" "ratio" (Stats.ratio emc_hits (emc_hits +. emc_misses));
      Report.m "emc.occupancy" "count" (float_of_int s1.Dataplane.emc_occupancy);
      Report.m "megaflow.masks" "count" (float_of_int s1.Dataplane.masks);
      Report.m "megaflow.entries" "count" (float_of_int s1.Dataplane.megaflows);
      Report.m "megaflow.probes_per_pkt" "probe/pkt"
        (Stats.ratio (float_of_int batch.Spans.probes) pkts);
      Report.m "megaflow.hit_ratio" "ratio"
        (Stats.ratio (emc_misses -. upcalls) emc_misses);
      Report.m "megaflow.ns_per_probe" "ns"
        (Stats.ratio (float_of_int ph.batch_ns) (float_of_int batch.Spans.probes));
      Report.m "slowpath.upcalls" "count" upcalls;
      Report.m "slowpath.upcalls_per_kpkt" "1/kpkt" (Stats.ratio (1e3 *. upcalls) all_pkts);
      Report.m "slowpath.probes_per_upcall" "probe/upcall"
        (Stats.ratio (float_of_int h.inject_slow_probes) (float_of_int h.inject_upcalls));
      Report.m "slowpath.us_per_upcall" "us"
        (Stats.ratio (inj_s *. 1e6) (float_of_int h.inject_upcalls));
      Report.m "process_batch.calls" "count" (float_of_int batch.Spans.calls);
      Report.m "process_batch.busy_s" "s" (float_of_int ph.batch_ns /. 1e9);
      Report.m "process_batch.ns_per_pkt" "ns"
        (Stats.ratio (float_of_int ph.batch_ns) pkts);
      Report.m "revalidate.calls" "count" (float_of_int (ph.reval_calls + ph_u.reval_calls));
      Report.m "revalidate.ms_per_call" "ms"
        (Stats.ratio
           (float_of_int (ph.reval_ns + ph_u.reval_ns) /. 1e6)
           (float_of_int (ph.reval_calls + ph_u.reval_calls)));
      Report.m "revalidate.evicted" "count" (float_of_int (ph.evicted + ph_u.evicted));
      Report.m "service_upcalls.busy_s" "s" (float_of_int ph.upcall_ns /. 1e9) ]
    @ engine_metrics e
    @ [ Report.m "cost_model.ratio" "ratio"
          (Stats.ratio
             ((s1.Dataplane.cycles -. s0.Dataplane.cycles) /. cpu_hz)
             (all_batch_ns /. 1e9));
        Report.m "compile.ms" "ms" (med (fun t -> t.compile) /. 1e6);
        Report.m "install_rules.ms" "ms" (med (fun t -> t.install) /. 1e6);
        Report.m "gc.minor_words_per_pkt" "word/pkt" (Stats.ratio batch.Spans.words pkts);
        Report.m "gc.major_collections" "count" (float_of_int (gc1 - gc0));
        Report.m "gc.heap_peak_mb" "MB" (heap_peak_mb ());
        Report.m "step.tail_us" "us" (burst_summary ph_u).tail;
        Report.m "trace.overhead_pct" "%" (Stats.median_float overheads) ]
  in
  { Report.attempted = h.checked + e.e_checked;
    failed = failed h + e.e_mismatches;
    metrics;
    lines =
      [ Printf.sprintf "attack traced: %d untraced and %d traced slices of %g s; %d spans (%d written to %s)"
          pairs pairs slice_s spans.Spans.next_id spans.Spans.retained path;
        Printf.sprintf "  slowpath.inject_s %.4f s (median of %d)" inj_s (List.length times);
        engine_line e ]
      @ Report.summary_lines metrics }

let run ~seed ~seconds ~trace =
  if trace then begin
    let times = List.init (hosts - 1) (fun _ -> with_host ~seed times_of) in
    with_host ~seed (fun h ->
        settle h;
        traced h (times @ [ times_of h ]) ~seed ~seconds)
  end
  else begin
    let ph = phase () and share = seconds /. float_of_int hosts in
    let tallies =
      List.init hosts (fun _ ->
          with_host ~seed (fun h ->
              settle h;
              ignore (measure ~ph h ~seconds:share);
              tally h))
    in
    e2e tallies ph ~seconds
  end

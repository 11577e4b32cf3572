(* The fig3 workload: [Scenario.run] on [default_params] with metrics,
   the sample log and the per-stage profiler on, as [bench fig3] and
   [ovsdos monitor] run it — 150 simulated seconds, the attack at
   t = 60 s. The untraced runs let the scenario build its own Pmd; the
   traced run passes a [Traced_dp] wrapper around the same Pmd as
   [params.backend], and its report must equal the untraced one. *)

open Pi_sim

type run = {
  report : Scenario.report;
  run_ns : int;
  ticks : Stats.buf;  (* wall time between successive on_sample calls *)
  attack_ticks : Stats.buf;  (* the same, for ticks of the steady attack *)
  metrics : Pi_telemetry.Metrics.t;
  log : Pi_telemetry.Sample_log.t;
}

let params ~seed =
  { Scenario.default_params with
    Scenario.seed = Int64.of_int seed;
    metrics = Some (Pi_telemetry.Metrics.create ());
    sample_log = Some (Pi_telemetry.Sample_log.create ~capacity:4096 ());
    profile = true }

(* Ticks from 10 s after the attack starts — the window the report's
   post-attack mean covers. Before it, ticks are an order of magnitude
   cheaper, so a median over all ticks would sit on the edge between
   the two regimes. *)
let steady_attack_from =
  Host.attack.Pi_sim.Scenario.start +. 10.

let run_once ?backend p =
  let ticks = Stats.buf () and attack_ticks = Stats.buf () in
  let last = ref (-1) in
  let on_sample _ (s : Scenario.sample) =
    let t = Spans.now_ns () in
    if !last >= 0 then begin
      Stats.push ticks (t - !last);
      if s.Scenario.time >= steady_attack_from then
        Stats.push attack_ticks (t - !last)
    end;
    last := t
  in
  let p = { p with Scenario.backend; on_sample = Some on_sample } in
  let t0 = Spans.now_ns () in
  let report = Scenario.run p in
  let run_ns = Spans.now_ns () - t0 in
  { report; run_ns; ticks; attack_ticks;
    metrics = Option.get p.Scenario.metrics;
    log = Option.get p.Scenario.sample_log }

(* The paper's outcome: the injected policy grows at least 90% of the
   predicted 8192 masks, and victim goodput falls below a tenth of its
   pre-attack level. *)
let output_checks r =
  let rep = r.report in
  let predicted =
    Policy_injection.Predict.variant_masks
      Host.attack.Pi_sim.Scenario.variant
  in
  [ ("peak_masks >= 0.9 x predicted",
     float_of_int rep.Scenario.peak_masks >= 0.9 *. float_of_int predicted);
    ("post-attack Gbps <= 0.1 x pre-attack Gbps",
     rep.Scenario.post_attack_mean_gbps
     <= 0.1 *. rep.Scenario.pre_attack_mean_gbps) ]

(* Everything the report and the telemetry it fed carry: every sample,
   the means, the peaks, the final counters, the JSON snapshot with the
   scraped series, the sample-log lines and the per-stage profile. *)
let fingerprint r =
  let rep = r.report in
  let perf =
    match rep.Scenario.perf with
    | None -> []
    | Some pf ->
      List.init Pi_telemetry.Perf.n_stages (Pi_telemetry.Perf.stage_cycles pf)
  in
  ( ( rep.Scenario.samples,
      rep.Scenario.pre_attack_mean_gbps,
      rep.Scenario.post_attack_mean_gbps,
      rep.Scenario.peak_masks,
      rep.Scenario.peak_shard_masks,
      rep.Scenario.final_stats ),
    Pi_telemetry.Export.json_snapshot ?scrape:rep.Scenario.scrape r.metrics,
    Pi_telemetry.Sample_log.lines r.log,
    perf )

let same_report a b = compare (fingerprint a) (fingerprint b) = 0

let traced_once p =
  let spans = Spans.create () in
  let backend = Traced_dp.backend spans (Traced_dp.scenario_backend p) in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let root = Spans.enter spans in
  let r = run_once ~backend p in
  Spans.leave spans root "scenario.run";
  let gc1 = (Gc.quick_stat ()).Gc.major_collections in
  (r, spans, gc1 - gc0)

(* Set-up: everything [Scenario.run] does before its first packet call
   is what a zero-length run does. It takes a couple of milliseconds, so
   a burst of the host's interference moves a whole block of them; the
   set-up runs are spread over the measured window instead, a block
   between every two scenario runs, and the median over all of them is
   reported. Each starts from a collected heap. *)
let setup_ns ~seed =
  let p = { (params ~seed) with Scenario.duration = 0. } in
  Gc.full_major ();
  let t0 = Spans.now_ns () in
  ignore (Scenario.run p);
  Spans.now_ns () - t0

let setup_block = 25

let median_ns f ~reps =
  Stats.median_float (List.init reps (fun _ -> float_of_int (f ())))

(* p50 and tail, in ms, of the tick times [f] of [runs] pooled, with the
   tail's percentile and the sample count. *)
let pooled runs f =
  let b = Stats.buf () in
  List.iter
    (fun r ->
      let t = f r in
      for i = 0 to t.Stats.n - 1 do Stats.push b t.Stats.a.(i) done)
    runs;
  let s = Stats.sorted b in
  let n = Array.length s in
  let p = Option.get (Stats.tail_percentile n) in
  let ms ns = float_of_int ns /. 1e6 in
  (ms (Stats.percentile s 50), p, ms (Stats.percentile s p), n)

let run_e2e ~seed ~seconds =
  let setups = ref [] in
  let setup_block () =
    for _ = 1 to setup_block do
      setups := (float_of_int (setup_ns ~seed) /. 1e9) :: !setups
    done
  in
  let deadline = Spans.now_ns () + int_of_float (seconds *. 1e9) in
  (* at least two runs, so the steady-attack ticks support a p90 *)
  let rec go acc =
    setup_block ();
    let r = run_once (params ~seed) in
    let acc = r :: acc in
    if Spans.now_ns () < deadline || List.length acc < 2 then go acc
    else List.rev acc
  in
  let runs = go [] in
  setup_block ();
  let setup_s = Stats.median_float !setups in
  let checks = List.concat_map output_checks runs in
  let failed = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let tick50, p, tail, n = pooled runs (fun r -> r.ticks) in
  let atk50, ap, atail, an = pooled runs (fun r -> r.attack_ticks) in
  let run_s = Stats.median_float (List.map (fun r -> float_of_int r.run_ns /. 1e9) runs) in
  let thr =
    Stats.median_float
      (List.map
         (fun r ->
           Packet.mpps ~pkts:r.report.Scenario.final_stats.Pi_ovs.Dataplane.packets
             ~ns:r.run_ns)
         runs)
  in
  let first = (List.hd runs).report in
  let lines =
    [ Printf.sprintf "fig3: %d runs of Scenario.run over %.1f s" (List.length runs)
        seconds;
      Printf.sprintf "  run_s            %.4f s (median of %d)" run_s (List.length runs);
      Printf.sprintf "  throughput_mpps  %.4f Mpps (%d dataplane packets per run)" thr
        first.Scenario.final_stats.Pi_ovs.Dataplane.packets;
      Printf.sprintf "  tick_p50_ms      %.3f ms (n=%d, all ticks)" tick50 n;
      Printf.sprintf "  tick_p%d_ms      %.3f ms (n=%d, %d beyond, all ticks)" p tail n
        (n - Stats.rank ~n p);
      Printf.sprintf "  step_p50_us      %.1f us (n=%d, ticks from t=%.0f s)" (atk50 *. 1e3) an
        steady_attack_from;
      Printf.sprintf "  step.tail_us     %.1f us (p%d, n=%d, %d beyond, ticks from t=%.0f s)"
        (atail *. 1e3) ap an (an - Stats.rank ~n:an ap) steady_attack_from;
      Printf.sprintf "  setup_s          %.5f s (median of %d)" setup_s
        (List.length !setups);
      Printf.sprintf "  heap_peak_mb     %.2f MB" (Packet.heap_peak_mb ());
      Printf.sprintf "  peak masks %d, victim %.4f Gbps pre-attack, %.4f Gbps post-attack"
        first.Scenario.peak_masks first.Scenario.pre_attack_mean_gbps
        first.Scenario.post_attack_mean_gbps;
      Printf.sprintf "  error_rate       %g ratio (%d of %d output checks failed)"
        (Stats.ratio (float_of_int failed) (float_of_int (List.length checks)))
        failed (List.length checks) ]
    @ List.filter_map
        (fun (name, ok) -> if ok then None else Some ("  FAILED: " ^ name))
        checks
  in
  { Report.attempted = List.length checks;
    failed;
    lines;
    metrics =
      [ Report.m "throughput_mpps" "Mpps" thr;
        Report.m "step_p50_us" "us" (atk50 *. 1e3);
        Report.m "setup_s" "s" setup_s ] }

let compile_ns () =
  let t0 = Spans.now_ns () in
  ignore (Sys.opaque_identity (Host.host_rules () @ Host.attacker_rules ()));
  Spans.now_ns () - t0

(* Two untraced/traced pairs: the per-layer figures come from the last
   traced run, the tracing overhead from both pairs. The figures of the
   layers only this workload drives — the per-packet [process] calls,
   the scenario's own time, [emc_insert_forced], the JSON export and the
   sample log — are printed in the summary lines; the result line holds
   the per-layer set every workload measures. *)
let run_traced ~seed ~seconds =
  let pair () =
    let u = run_once (params ~seed) in
    let t, spans, majors = traced_once (params ~seed) in
    (u, t, spans, majors)
  in
  let u1, t1, _, _ = pair () in
  let u, t, spans, majors = pair () in
  let overhead a b =
    100. *. ((float_of_int b.run_ns /. float_of_int a.run_ns) -. 1.)
  in
  let same = same_report u t && same_report u1 t1 in
  let checks =
    output_checks u @ output_checks t @ [ ("traced report = untraced report", same) ]
  in
  let e = Packet.engines ~seed ~seconds in
  let failed =
    List.length (List.filter (fun (_, ok) -> not ok) checks) + e.Packet.e_mismatches
  in
  let json_ms =
    let t0 = Spans.now_ns () in
    ignore
      (Pi_telemetry.Export.json_snapshot ?scrape:t.report.Scenario.scrape t.metrics);
    float_of_int (Spans.now_ns () - t0) /. 1e6
  in
  let path = Filename.concat (Report.out_dir ()) (Printf.sprintf "fig3-samples-%d.jsonl" seed) in
  let log_ms =
    let t0 = Spans.now_ns () in
    Pi_telemetry.Sample_log.write t.log ~path;
    float_of_int (Spans.now_ns () - t0) /. 1e6
  in
  let rep = t.report in
  let st = rep.Scenario.final_stats in
  let f = float_of_int in
  let busy name = f (Spans.busy_ns spans name) in
  let calls name = f (Spans.calls spans name) in
  (* [g] summed over the aggregates of [names] *)
  let sum g names =
    List.fold_left
      (fun acc n -> match Spans.find spans n with Some a -> acc +. g a | None -> acc)
      0. names
  in
  let packet_calls = [ "process_batch"; "process.hit"; "process.upcall" ] in
  let pkts = f st.Pi_ovs.Dataplane.packets in
  let probes = sum (fun a -> f a.Spans.probes) packet_calls in
  let slow_probes = sum (fun a -> f a.Spans.slow_probes) packet_calls in
  let words = sum (fun a -> a.Spans.words) packet_calls in
  let upcalls = f st.Pi_ovs.Dataplane.upcalls in
  let emc_h = f st.Pi_ovs.Dataplane.emc_hits and emc_m = f st.Pi_ovs.Dataplane.emc_misses in
  let pkt_busy = sum (fun a -> f a.Spans.busy_ns) packet_calls in
  let upcall_us = Stats.ratio (busy "process.upcall" /. 1e3) (calls "process.upcall") in
  let spans_path = Filename.concat (Report.out_dir ()) (Printf.sprintf "spans-fig3-%d.tsv" seed) in
  Spans.write spans ~path:spans_path;
  let metrics =
    [ Report.m "emc.hit_ratio" "ratio" (Stats.ratio emc_h (emc_h +. emc_m));
      Report.m "emc.occupancy" "count" (f st.Pi_ovs.Dataplane.emc_occupancy);
      Report.m "megaflow.masks" "count" (f st.Pi_ovs.Dataplane.masks);
      Report.m "megaflow.entries" "count" (f st.Pi_ovs.Dataplane.megaflows);
      Report.m "megaflow.probes_per_pkt" "probe/pkt" (Stats.ratio probes pkts);
      Report.m "megaflow.hit_ratio" "ratio" (Stats.ratio (emc_m -. upcalls) emc_m);
      Report.m "megaflow.ns_per_probe" "ns"
        (Stats.ratio (busy "process_batch")
           (sum (fun a -> f a.Spans.probes) [ "process_batch" ]));
      Report.m "slowpath.upcalls" "count" upcalls;
      Report.m "slowpath.upcalls_per_kpkt" "1/kpkt" (Stats.ratio (1e3 *. upcalls) pkts);
      Report.m "slowpath.probes_per_upcall" "probe/upcall" (Stats.ratio slow_probes upcalls);
      Report.m "slowpath.us_per_upcall" "us" upcall_us;
      Report.m "process_batch.calls" "count" (calls "process_batch");
      Report.m "process_batch.busy_s" "s" (busy "process_batch" /. 1e9);
      Report.m "process_batch.ns_per_pkt" "ns"
        (Stats.ratio (busy "process_batch")
           (sum (fun a -> f a.Spans.items) [ "process_batch" ]));
      Report.m "revalidate.calls" "count" (calls "revalidate");
      Report.m "revalidate.ms_per_call" "ms"
        (Stats.ratio (busy "revalidate" /. 1e6) (calls "revalidate"));
      Report.m "revalidate.evicted" "count" (sum (fun a -> f a.Spans.items) [ "revalidate" ]);
      Report.m "service_upcalls.busy_s" "s" (busy "service_upcalls" /. 1e9) ]
    @ Packet.engine_metrics e
    @ [ Report.m "cost_model.ratio" "ratio"
          (Stats.ratio (st.Pi_ovs.Dataplane.cycles /. Packet.cpu_hz) (pkt_busy /. 1e9));
        Report.m "compile.ms" "ms" (median_ns compile_ns ~reps:5 /. 1e6);
        Report.m "install_rules.ms" "ms" (busy "install_rules" /. 1e6);
        Report.m "gc.minor_words_per_pkt" "word/pkt" (Stats.ratio words pkts);
        Report.m "gc.major_collections" "count" (f majors);
        Report.m "gc.heap_peak_mb" "MB" (Packet.heap_peak_mb ());
        Report.m "step.tail_us" "us"
          (let _, _, tail, _ = pooled [ u1; u ] (fun r -> r.attack_ticks) in
           tail *. 1e3);
        Report.m "trace.overhead_pct" "%"
          (Stats.median_float [ overhead u1 t1; overhead u t ]) ]
  in
  { Report.attempted = List.length checks + e.Packet.e_checked;
    failed;
    metrics;
    lines =
      [ Printf.sprintf "fig3 traced: run_s untraced %.4f / %.4f s, traced %.4f / %.4f s"
          (f u1.run_ns /. 1e9) (f u.run_ns /. 1e9) (f t1.run_ns /. 1e9)
          (f t.run_ns /. 1e9);
        Printf.sprintf "  trace.overhead_s %.4f s (traced - untraced run_s, median of 2 pairs)"
          (Stats.median_float
             [ f (t1.run_ns - u1.run_ns) /. 1e9; f (t.run_ns - u.run_ns) /. 1e9 ]);
        Printf.sprintf "  traced report = untraced report: %b (peak masks %d, post-attack %.4f Gbps)"
          same rep.Scenario.peak_masks rep.Scenario.post_attack_mean_gbps;
        Printf.sprintf "  %d spans (%d written to %s)" spans.Spans.next_id
          spans.Spans.retained spans_path;
        Printf.sprintf "  process.calls %.0f, process.hit_us %.3f us, process.upcall_us %.3f us"
          (calls "process.hit" +. calls "process.upcall")
          (Stats.ratio (busy "process.hit" /. 1e3) (calls "process.hit"))
          upcall_us;
        Printf.sprintf "  scenario.self_s %.4f s, emc_insert_forced.busy_s %.4f s"
          (f (Spans.self_ns spans "scenario.run") /. 1e9)
          (busy "emc_insert_forced" /. 1e9);
        Printf.sprintf "  export.json_ms %.3f ms, sample_log.write_ms %.3f ms" json_ms log_ms;
        Packet.engine_line e ]
      @ Report.summary_lines metrics }

let run ~seed ~seconds ~trace =
  if trace then run_traced ~seed ~seconds else run_e2e ~seed ~seconds

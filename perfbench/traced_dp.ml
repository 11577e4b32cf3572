(* A Dataplane.S that forwards every call to an inner backend and
   records a span around each call into it. Passed as
   [Scenario.params.backend], it traces the scenario from outside the
   library: the scenario sees an ordinary dataplane, and the report it
   produces must equal the untraced one bit for bit. *)

open Pi_ovs

(* Exactly the Pmd that [Scenario.run] builds itself when
   [params.backend = None]. *)
let scenario_backend (p : Pi_sim.Scenario.params) =
  Dataplane.pmd
    ~config:
      { Pmd.default_config with
        Pmd.n_shards = p.Pi_sim.Scenario.n_shards;
        batch_size = p.Pi_sim.Scenario.batch_size;
        parallel = true;
        batch_cycles = p.Pi_sim.Scenario.batch_cycles;
        mode =
          (if p.Pi_sim.Scenario.pipeline then Pmd.Pipeline else Pmd.Deterministic);
        dp = p.Pi_sim.Scenario.datapath_config }
    ?tss_config:p.Pi_sim.Scenario.tss_config ()

(* Span counts of one processed batch, read from its result columns. *)
let record_batch spans name b ~start ~stop ~words =
  let probes = ref 0 and upcalls = ref 0 and slow = ref 0 in
  for i = 0 to Batch.length b - 1 do
    probes := !probes + b.Batch.mf_probes.(i);
    slow := !slow + b.Batch.slow_probes.(i);
    if b.Batch.upcall.(i) then incr upcalls
  done;
  Spans.record spans name ~start ~stop ~items:(Batch.length b) ~probes:!probes
    ~upcalls:!upcalls ~slow_probes:!slow ~words ()

let backend (spans : Spans.t) (inner : Dataplane.backend) : Dataplane.backend =
  let timed name f =
    let s = Spans.now_ns () in
    let r = f () in
    Spans.record spans name ~start:s ~stop:(Spans.now_ns ()) ();
    r
  in
  (module struct
    type t = Dataplane.t

    let name = "traced"

    let create ?telemetry ?provenance rng () =
      timed "create" (fun () -> Dataplane.create ?telemetry ?provenance inner rng)

    let install_rules t rules =
      timed "install_rules" (fun () -> Dataplane.install_rules t rules)

    let remove_rules t p = timed "remove_rules" (fun () -> Dataplane.remove_rules t p)

    let process t ~now flow ~pkt_len =
      let w0 = Gc.minor_words () in
      let s = Spans.now_ns () in
      let ((_, o) as r) = Dataplane.process t ~now flow ~pkt_len in
      let e = Spans.now_ns () in
      let upcall = o.Cost_model.upcall in
      Spans.record spans
        (if upcall then "process.upcall" else "process.hit")
        ~start:s ~stop:e ~items:1 ~probes:o.Cost_model.mf_probes
        ~upcalls:(if upcall then 1 else 0)
        ~slow_probes:o.Cost_model.slow_probes
        ~words:(Gc.minor_words () -. w0) ();
      r

    let process_batch t b ~now =
      let w0 = Gc.minor_words () in
      let s = Spans.now_ns () in
      Dataplane.process_batch t b ~now;
      let e = Spans.now_ns () in
      record_batch spans "process_batch" b ~start:s ~stop:e
        ~words:(Gc.minor_words () -. w0)

    let process_burst t ~now pkts =
      timed "process_burst" (fun () -> Dataplane.process_burst t ~now pkts)

    let service_upcalls t ~now =
      timed "service_upcalls" (fun () -> Dataplane.service_upcalls t ~now)

    let revalidate t ~now =
      let s = Spans.now_ns () in
      let n = Dataplane.revalidate t ~now in
      Spans.record spans "revalidate" ~start:s ~stop:(Spans.now_ns ()) ~items:n ();
      n

    let close t = Dataplane.close t
    let stats = Dataplane.stats
    let cycles_used = Dataplane.cycles_used
    let telemetry = Dataplane.telemetry
    let reset_stats = Dataplane.reset_stats
    let n_shards = Dataplane.n_shards
    let shard_of = Dataplane.shard_of
    let shard_masks = Dataplane.shard_masks
    let shard_cycles = Dataplane.shard_cycles
    let shard_metrics = Dataplane.shard_metrics
    let shard_perf = Dataplane.shard_perf
    let last_megaflow = Dataplane.last_megaflow

    let emc_insert_forced t flow e =
      let s = Spans.now_ns () in
      Dataplane.emc_insert_forced t flow e;
      Spans.record spans "emc_insert_forced" ~start:s ~stop:(Spans.now_ns ()) ()

    let provenance = Dataplane.provenance
    let shard_flows = Dataplane.shard_flows
    let shard_mask_stats = Dataplane.shard_mask_stats
  end)

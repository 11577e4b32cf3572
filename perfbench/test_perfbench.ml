(* The benchmark's own tests: the percentile rule, the traced wrapper's
   parity with the untraced scenario, and seed determinism of the
   generated traffic. *)

open Perfbench

let test_percentile_rule () =
  let tail n = Stats.tail_percentile n in
  Alcotest.(check (option int)) "1000 samples: p99" (Some 99) (tail 1000);
  Alcotest.(check (option int)) "999 samples: p90" (Some 90) (tail 999);
  Alcotest.(check (option int)) "100 samples: p90" (Some 90) (tail 100);
  Alcotest.(check (option int)) "99 samples: none" None (tail 99);
  Alcotest.(check int) "p99 of 1000 leaves 10 beyond" 10 (1000 - Stats.rank ~n:1000 99);
  let s = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "p50 nearest rank" 50 (Stats.percentile s 50);
  Alcotest.(check int) "p90 nearest rank" 90 (Stats.percentile s 90);
  Alcotest.(check int) "p99 nearest rank" 99 (Stats.percentile s 99);
  Alcotest.(check int) "p50 of one" 7 (Stats.percentile [| 7 |] 50)

(* A 20-simulated-second scenario with the attack at t = 5 s. *)
let short_params ~seed =
  { (Fig3.params ~seed) with
    Pi_sim.Scenario.duration = 20.;
    attack =
      Some { Pi_sim.Scenario.default_attack with Pi_sim.Scenario.start = 5. } }

let test_wrapper_parity () =
  let u = Fig3.run_once (short_params ~seed:7) in
  let t, spans, _ = Fig3.traced_once (short_params ~seed:7) in
  Alcotest.(check bool) "traced report = untraced report" true
    (Fig3.same_report u t);
  Alcotest.(check bool) "the wrapper saw the injection" true
    (Spans.calls spans "process.upcall" > 8000);
  let other = Fig3.run_once (short_params ~seed:8) in
  Alcotest.(check bool) "another seed gives another report" false
    (Fig3.same_report u other)

let trace ~seed ~bursts =
  let load = Load.create ~seed ~rules:(Host.host_rules ()) in
  let b = Pi_ovs.Batch.create ~capacity:Load.burst in
  let expect = Array.make Load.burst Pi_ovs.Action.Drop in
  List.init bursts (fun _ ->
      Load.fill load b expect;
      ignore (Load.second_due load);
      List.init Load.burst (fun i ->
          (Pi_classifier.Flow.hash (Pi_ovs.Batch.flow b i), expect.(i))))

let test_seed_determinism () =
  let a = trace ~seed:5 ~bursts:3000 and b = trace ~seed:5 ~bursts:3000 in
  Alcotest.(check bool) "same seed, same trace" true (a = b);
  Alcotest.(check bool) "another seed, another trace" false
    (a = trace ~seed:6 ~bursts:3000);
  let counters () =
    let h = Packet.host ~config:Packet.benign_config ~seed:5 in
    Fun.protect ~finally:(fun () -> Packet.close h) @@ fun () ->
    Alcotest.(check int) "oracle agrees on every warm-up packet" 0
      h.Packet.mismatches;
    Pi_ovs.Dataplane.stats h.Packet.dp
  in
  Alcotest.(check bool) "same seed, same counters" true (counters () = counters ())

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "traced wrapper parity" `Quick test_wrapper_parity;
          Alcotest.test_case "seed determinism" `Quick test_seed_determinism ] ) ]

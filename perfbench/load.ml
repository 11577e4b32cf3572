(* The seeded traffic generator and the correctness oracle.

   Victim traffic is a pool of 32 768 TCP flows (4x the EMC capacity)
   with Zipf(1) popularity and 5% churn per simulated second, at the
   1 Gb/s of 1500-byte frames of the scenario: 83 333 packets per
   simulated second, so one 32-packet burst advances virtual time by
   32/83 333 s. One packet in [service_every] goes to a background
   service; once the covert stream is armed, one packet in
   [covert_every] is the next covert flow in round-robin order — the
   paper's 5 s refresh of 8192 flows beside a 1 Gb/s victim.

   Every generated packet carries its expected action: the verdict of
   [Pi_classifier.Linear] over exactly the rules installed (no match
   means [Drop]). Verdicts are computed once per distinct flow, when
   the flow is first drawn, never inside a timed call. *)

open Pi_pkt
open Pi_classifier
open Pi_ovs

let burst = 32
let pool_flows = 32_768
let churn_per_second = 0.05
let service_every = 16
let covert_every = 50
let clients_per_service = 32

let victim_pps =
  Traffic.rate_for_bandwidth ~bits_per_sec:1e9 ~pkt_len:Host.victim_pkt_len

type slot = { flow : Flow.t; pkt_len : int; expect : Action.t }

module Spec_tbl = Hashtbl.Make (struct
  type t = Traffic.flow_spec

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type t = {
  rng : Prng.t;
  pool : Traffic.Flow_pool.t;
  specs : Traffic.flow_spec array;  (* the pool's flows, by index *)
  memo : slot Spec_tbl.t;  (* verdicts of the pool's current flows *)
  mutable oracle : Action.t Linear.t;
  service_flows : (Flow.t * int) array;
  mutable services : slot array;
  mutable covert : slot array;
  mutable cursor : int;
  mutable sent : int;
  mutable now : float;
  mutable next_second : float;
}

let verdict oracle flow =
  match Linear.lookup oracle flow with
  | Some r -> r.Rule.action
  | None -> Action.Drop

let slot oracle flow pkt_len = { flow; pkt_len; expect = verdict oracle flow }
let covert_len = Host.attack.Pi_sim.Scenario.covert_pkt_len

let create ~seed ~rules =
  let rng = Prng.create (Int64.of_int seed) in
  let pool =
    Traffic.Flow_pool.create (Prng.split rng) ~n_flows:pool_flows
      ~src_net:Host.allowed_net ~dst_net:(Host.host32 Host.victim_ip)
      ~proto:Ipv4.proto_tcp ~dst_ports:[| Host.victim_dport |]
      ~pkt_len:Host.victim_pkt_len ()
  in
  let service_flows =
    Array.init (Host.n_services * clients_per_service) (fun j ->
        let i = j mod Host.n_services in
        ( Flow.make ~in_port:Host.uplink_port
            ~ip_src:(Ipv4_addr.add (Ipv4_addr.of_string "10.9.0.1") j)
            ~ip_dst:(Host.service_ip i) ~ip_proto:Ipv4.proto_tcp
            ~tp_src:(41000 + j) ~tp_dst:(Host.service_dport i) (),
          Host.service_pkt_len ))
  in
  let oracle = Linear.of_rules rules in
  { rng; pool;
    specs = Array.init pool_flows (Traffic.Flow_pool.nth pool);
    memo = Spec_tbl.create pool_flows;
    oracle;
    service_flows;
    services = Array.map (fun (f, l) -> slot oracle f l) service_flows;
    covert = [||];
    cursor = 0;
    sent = 0;
    now = 0.;
    next_second = 1. }

(* The rule set the dataplane now holds changed: recompute verdicts. *)
let set_rules t rules =
  let oracle = Linear.of_rules rules in
  t.oracle <- oracle;
  Spec_tbl.reset t.memo;
  t.services <- Array.map (fun (f, l) -> slot oracle f l) t.service_flows

(* Start the covert stream; call after [set_rules] with the attacker's
   rules, so its verdicts see them. *)
let arm_covert t flows =
  t.covert <- Array.map (fun f -> slot t.oracle f covert_len) flows

let victim_slot t =
  let spec = Traffic.Flow_pool.sample t.pool t.rng in
  match Spec_tbl.find_opt t.memo spec with
  | Some s -> s
  | None ->
    let f =
      Flow.make ~in_port:Host.uplink_port ~ip_src:spec.Traffic.src
        ~ip_dst:spec.Traffic.dst ~ip_proto:spec.Traffic.proto
        ~tp_src:spec.Traffic.src_port ~tp_dst:spec.Traffic.dst_port ()
    in
    let s = slot t.oracle f spec.Traffic.pkt_len in
    Spec_tbl.replace t.memo spec s;
    s

let next_slot t =
  let k = t.sent in
  t.sent <- k + 1;
  if Array.length t.covert > 0 && k mod covert_every = covert_every - 1 then begin
    let s = t.covert.(t.cursor) in
    t.cursor <- (t.cursor + 1) mod Array.length t.covert;
    s
  end
  else if k mod service_every = service_every - 1 then
    t.services.(Prng.int t.rng (Array.length t.services))
  else victim_slot t

(* Fill [b] with the next burst and [expect] with its verdicts. *)
let fill t b expect =
  Batch.clear b;
  for i = 0 to burst - 1 do
    let s = next_slot t in
    Batch.push b s.flow ~pkt_len:s.pkt_len;
    expect.(i) <- s.expect
  done;
  t.now <- t.now +. (float_of_int burst /. victim_pps)

(* Fill [b] with covert flows [lo, lo + n) only — the injection round. *)
let fill_covert t b expect ~lo ~n =
  Batch.clear b;
  for i = 0 to n - 1 do
    let s = t.covert.(lo + i) in
    Batch.push b s.flow ~pkt_len:s.pkt_len;
    expect.(i) <- s.expect
  done

(* True once per simulated second: the caller then revalidates. Churn
   replaces 5% of the pool, and the verdicts of departed flows go. *)
let second_due t =
  if t.now < t.next_second then false
  else begin
    t.next_second <- t.next_second +. 1.;
    ignore (Traffic.Flow_pool.churn t.pool t.rng ~fraction:churn_per_second);
    Array.iteri
      (fun i old ->
        let sp = Traffic.Flow_pool.nth t.pool i in
        if sp != old then begin
          Spec_tbl.remove t.memo old;
          t.specs.(i) <- sp
        end)
      t.specs;
    true
  end

(* Mismatches between the batch's actions and the expected verdicts. *)
let check b expect =
  let bad = ref 0 in
  for i = 0 to Batch.length b - 1 do
    if not (Action.equal (Batch.action b i) expect.(i)) then incr bad
  done;
  !bad

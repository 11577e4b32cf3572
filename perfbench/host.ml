(* The host layout of Pi_sim.Scenario, rebuilt from the public CMS API:
   a victim pod on 10.1.0.2 with a /8 source whitelist, eight
   background services with TCP whitelists of their own, and the
   attacker pod on 10.1.0.3 whose Calico policy pins source address,
   source port and destination port. Port numbering follows the
   scenario: uplink 1, victim 2, attacker 3, service i at 4 + i. *)

open Pi_pkt
open Pi_classifier
open Pi_ovs

let uplink_port = 1
let victim_port = 2
let attacker_port = 3
let victim_ip = Ipv4_addr.of_string "10.1.0.2"
let attacker_ip = Ipv4_addr.of_string "10.1.0.3"
let params = Pi_sim.Scenario.default_params
let allowed_net = params.Pi_sim.Scenario.victim_allowed_net
let n_services = params.Pi_sim.Scenario.background_services
let victim_pkt_len = params.Pi_sim.Scenario.victim_pkt_len
let victim_dport = 5001
let service_pkt_len = 400
let service_ip i = Ipv4_addr.add (Ipv4_addr.of_string "10.1.1.0") (i + 1)
let service_dport i = 8000 + i
let host32 a = Ipv4_addr.Prefix.make a 32

let victim_rules () =
  Pi_cms.Compile.compile ~dst:(host32 victim_ip)
    ~allow:(Action.Output victim_port)
    (Pi_cms.Acl.whitelist [ Pi_cms.Acl.entry ~src:allowed_net () ])

let service_rules i =
  Pi_cms.Compile.compile ~dst:(host32 (service_ip i))
    ~allow:(Action.Output (4 + i))
    (Pi_cms.Acl.whitelist
       [ Pi_cms.Acl.entry ~src:allowed_net ~proto:Pi_cms.Acl.Tcp
           ~dst_port:(Pi_cms.Acl.Port (service_dport i)) () ])

(* Victim plus background services: the benign host. *)
let host_rules () =
  victim_rules () @ List.concat (List.init n_services service_rules)

let attack = Pi_sim.Scenario.default_attack

let attack_spec () =
  { (Policy_injection.Policy_gen.default_spec
       ~variant:attack.Pi_sim.Scenario.variant
       ~allow_src:attack.Pi_sim.Scenario.trusted_src ())
    with
    Policy_injection.Policy_gen.allow_sport = attack.Pi_sim.Scenario.allow_sport;
    allow_dport = attack.Pi_sim.Scenario.allow_dport;
    proto = attack.Pi_sim.Scenario.proto }

let attacker_rules () =
  Pi_cms.Compile.compile ~dst:(host32 attacker_ip)
    ~allow:(Action.Output attacker_port)
    (Policy_injection.Policy_gen.acl (attack_spec ()))

(* One covert flow per mask of the Src_sport_dport variant (8192),
   entering on the uplink like the scenario's covert stream. *)
let covert_flows ~seed =
  let gen =
    Policy_injection.Packet_gen.make ~pkt_len:attack.Pi_sim.Scenario.covert_pkt_len
      ~spec:(attack_spec ()) ~dst:attacker_ip ()
  in
  Policy_injection.Packet_gen.flows ~seed gen
  |> List.map (fun f -> Flow.with_field f Field.In_port uplink_port)
  |> Array.of_list

(* The benchmark's command line:

     bench.exe --workload W --seed N --seconds S --trace T

   with W one of attack, fig3 and T 0 or 1. It prints a human-readable
   summary, then one JSON line with the end-to-end metrics (--trace 0)
   or the per-layer ones (--trace 1).
   See BASELINE.md beside this file for what each workload and metric
   is for. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload {attack|fig3} --seed N \
     --seconds S --trace {0|1}";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0. ->
    let r =
      match w with
      | "attack" -> Perfbench.Packet.run ~seed ~seconds ~trace
      | "fig3" -> Perfbench.Fig3.run ~seed ~seconds ~trace
      | _ -> usage ()
    in
    Perfbench.Report.output r
  | _ -> usage ()

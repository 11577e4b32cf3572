(* What one benchmark invocation reports. *)

type metric = { name : string; value : float; unit : string }

type t = {
  attempted : int;
  failed : int;
  metrics : metric list;
      (* the end-to-end set untraced, the per-layer set traced *)
  lines : string list;  (* human-readable summary, printed first *)
}

let m name unit value = { name; value; unit }

let summary_lines ms =
  List.map (fun x -> Printf.sprintf "  %-32s %.6g %s" x.name x.value x.unit) ms

(* Full precision: the value as measured, with all its digits. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Report.json_number: non-finite metric"

let json r =
  let ms =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.value) x.unit)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0 && r.attempted > 0)
    r.attempted r.failed (String.concat ", " ms)

let output r =
  List.iter print_endline r.lines;
  print_endline (json r)

(* [_perfbench/] in the working directory holds the traced runs' files. *)
let out_dir () =
  let d = "_perfbench" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

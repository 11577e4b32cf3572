(* Sample buffers and the percentile rule. *)

(* A growable buffer of integer samples (nanoseconds). *)
type buf = { mutable a : int array; mutable n : int }

let buf () = { a = Array.make 4096 0; n = 0 }

let push b v =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- v;
  b.n <- b.n + 1

let sorted b =
  let s = Array.sub b.a 0 b.n in
  Array.sort compare s;
  s

(* Nearest-rank percentile of a sorted array, [p] in whole percent:
   the sample at rank ceil(p*n/100). *)
let rank ~n p = max 1 ((p * n + 99) / 100)

let percentile s p =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  s.(rank ~n p - 1)

(* The tail we report: the highest of p99 and p90 with at least ten
   samples beyond its rank, so a tail figure never rests on fewer than
   ten observations. [None] when not even p90 qualifies. *)
let tail_percentile n =
  List.find_opt (fun p -> n - rank ~n p >= 10) [ 99; 90 ]

let median_float l =
  let s = Array.of_list l in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median_float: no samples";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

open Pi_pkt

let test_determinism () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_distinct_seeds () =
  let a = Prng.create 1L and b = Prng.create 2L in
  Alcotest.(check bool) "different first draw" false
    (Int64.equal (Prng.int64 a) (Prng.int64 b))

let test_copy () =
  let a = Prng.create 7L in
  ignore (Prng.int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.int64 a) (Prng.int64 b)

let test_split_independent () =
  let a = Prng.create 7L in
  let b = Prng.split a in
  let xs = List.init 10 (fun _ -> Prng.int64 a) in
  let ys = List.init 10 (fun _ -> Prng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_int_bounds () =
  let r = Prng.create 3L in
  for _ = 1 to 1000 do
    let v = Prng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of bounds"
  done

let test_int_invalid () =
  let r = Prng.create 3L in
  (match Prng.int r 0 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected Invalid_argument")

let test_bits () =
  let r = Prng.create 9L in
  for n = 0 to 30 do
    let v = Prng.bits r n in
    if v < 0 || (n < 30 && v >= 1 lsl n) then
      Alcotest.failf "bits %d out of range: %d" n v
  done

let test_float_range () =
  let r = Prng.create 5L in
  for _ = 1 to 1000 do
    let v = Prng.float r in
    if v < 0. || v >= 1. then Alcotest.fail "float out of [0,1)"
  done

let test_float_mean () =
  let r = Prng.create 11L in
  let n = 10_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.float r
  done;
  let mean = !sum /. float_of_int n in
  if abs_float (mean -. 0.5) > 0.02 then
    Alcotest.failf "mean %f too far from 0.5" mean

let test_exponential () =
  let r = Prng.create 13L in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let v = Prng.exponential r ~mean:2.0 in
    if v < 0. then Alcotest.fail "negative exponential";
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  if abs_float (mean -. 2.0) > 0.1 then
    Alcotest.failf "exponential mean %f too far from 2" mean

let test_shuffle_permutation () =
  let r = Prng.create 17L in
  let a = Array.init 50 Fun.id in
  Prng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_shuffle_changes () =
  let r = Prng.create 17L in
  let a = Array.init 50 Fun.id in
  Prng.shuffle r a;
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 50 Fun.id)

(* The state is kept unboxed: a bounded draw — one per EMC insertion on
   the datapath — allocates nothing. *)
let test_int_allocation_free () =
  let r = Prng.create 19L in
  ignore (Prng.int r 1000);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Prng.int r 1000)
  done;
  let w1 = Gc.minor_words () in
  (* the two [Gc.minor_words] reads box their own float results *)
  let overhead =
    let o0 = Gc.minor_words () in
    Gc.minor_words () -. o0
  in
  Alcotest.(check (float 0.)) "minor words for 10 000 draws" 0.
    (w1 -. w0 -. overhead)

(* The stream is pinned to SplitMix64 (Steele et al.): the first outputs
   for seed 0 are the published reference values. *)
let test_reference_stream () =
  let r = Prng.create 0L in
  Alcotest.(check int64) "first" 0xE220A8397B1DCDAFL (Prng.int64 r);
  Alcotest.(check int64) "second" 0x6E789E6AA1B965F4L (Prng.int64 r)

let suite =
  [ Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "distinct seeds" `Quick test_distinct_seeds;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
    Alcotest.test_case "bits ranges" `Quick test_bits;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "exponential mean" `Quick test_exponential;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "shuffle changes order" `Quick test_shuffle_changes;
    Alcotest.test_case "int allocation-free" `Quick test_int_allocation_free;
    Alcotest.test_case "reference stream" `Quick test_reference_stream ]

open Pi_classifier

type entry = {
  key : Flow.t;
  mask : Mask.t;
  action : Action.t;
  revision : int;
  created : float;
  origin : Provenance.origin option;
  mutable last_used : float;
  mutable n_packets : int;
  mutable n_bytes : int;
  mutable alive : bool;
}

(* A subtable is a flat store: [s_tbl] maps the masked-key hash to an
   index into the [s_arena] of [entry option]s ([Some] for every slot
   below [s_count]; the option box is what a hit returns, so the probe
   path allocates nothing — the EMC "stored Some" trick). Deleted cells
   are compacted by swap-with-last; candidates are verified with
   [Mask.equal_masked_on], so no masked flow is built either. The
   in-subtable hash is [masked_fp]: [s_words] holds the mask's word
   of each support field, parallel to [s_support]. [s_filter] is the
   subtable's one-word hash filter (see the probe index below) and
   [s_pos] its current scan position. *)
type subtable = {
  s_mask : Mask.t;
  s_support : int array;                  (* Mask.support s_mask *)
  s_words : int array;                    (* s_mask's word per support field *)
  s_tbl : Flat_tbl.t;                     (* masked-key hash -> arena index *)
  mutable s_arena : entry option array;   (* slots [0, s_count) are Some *)
  mutable s_count : int;
  mutable s_hits : int;
  mutable s_filter : int;
  mutable s_pos : int;
}

type config = {
  max_entries : int;
  idle_timeout : float;
}

let default_config = { max_entries = 200_000; idle_timeout = 10.0 }

(* Subtables live in a growable array scanned in creation order, so the
   per-packet bookkeeping is O(1): [n_tables] is the mask count (no list
   walk), [by_mask] answers mask-membership in one probe, and a new mask
   is an amortised-O(1) append. [generation] counts the reorderings
   (resort, compaction, flush) that invalidate any previously handed-out
   subtable index — the {!Mask_cache} hints — while plain appends leave
   existing indices valid and do not bump it.

   The packed probe index (DESIGN.md §16) sits beside [arr]: [index]
   holds [block] ints per subtable position, and [word_ids] interns the
   (field, mask word) pairs the blocks name, with their field and word
   in [word_field]/[word_mask]. [hashes] and [cands] are walk scratch:
   the walked packets' hashes of every interned word, and the packets
   that pass a subtable's filter. The arrays are allocated with the
   first subtable or the first long walk, not by [create]. *)
type t = {
  cfg : config;
  by_mask : subtable Tables.Mask_tbl.t;
  mutable arr : subtable array;     (* slots [0, n_tables) are live *)
  mutable n_tables : int;
  mutable generation : int;
  mutable index : int array;        (* [block] ints per subtable position *)
  word_ids : (int, int) Hashtbl.t;
  mutable word_field : int array;
  mutable word_mask : int array;
  mutable n_words : int;            (* including the zero word, id 0 *)
  mutable hashes : int array;
  mutable cands : int array;
  mutable n : int;
  mutable hits : int;
  mutable misses : int;
  mutable probes : int;
  mutable w_remaining : int;
      (* walk scratch: packets of the current batch still unresolved.
         A field, not a [ref], so the per-subtable walk loop allocates
         nothing; only meaningful while the subtable-major walk runs. *)
  c_hit : Pi_telemetry.Metrics.counter option;
  c_miss : Pi_telemetry.Metrics.counter option;
  c_probes : Pi_telemetry.Metrics.counter option;
  c_mask_created : Pi_telemetry.Metrics.counter option;
  c_evicted : Pi_telemetry.Metrics.counter option;
  (* Live sizes, distinct from the cumulative [mask_created] counter —
     evictions decrease these but never the counter. *)
  g_masks : Pi_telemetry.Metrics.gauge option;
  g_megaflows : Pi_telemetry.Metrics.gauge option;
}

let create ?(config = default_config) ?metrics () =
  let c name = Option.map (fun m -> Pi_telemetry.Metrics.counter m name) metrics in
  let g name = Option.map (fun m -> Pi_telemetry.Metrics.gauge m name) metrics in
  { cfg = config;
    by_mask = Tables.Mask_tbl.create 64;
    arr = [||];
    n_tables = 0;
    generation = 0;
    index = [||];
    word_ids = Hashtbl.create 16;
    word_field = [||];
    word_mask = [||];
    n_words = 1;
    hashes = [||];
    cands = [||];
    n = 0;
    hits = 0;
    misses = 0;
    probes = 0;
    w_remaining = 0;
    c_hit = c "mf_hit";
    c_miss = c "mf_miss";
    c_probes = c "mf_probes";
    c_mask_created = c "mask_created";
    c_evicted = c "megaflow_evicted";
    g_masks = g "n_masks";
    g_megaflows = g "n_megaflows" }

let sync_gauges t =
  (match t.g_masks with
   | Some g -> Pi_telemetry.Metrics.set g (float_of_int t.n_tables)
   | None -> ());
  match t.g_megaflows with
  | Some g -> Pi_telemetry.Metrics.set g (float_of_int t.n)
  | None -> ()

let generation t = t.generation

let iter_subtables f t =
  for i = 0 to t.n_tables - 1 do
    f t.arr.(i)
  done

(* Apply [f] to every live entry of [st]; the arena prefix is dense, so
   this is a straight array walk. *)
let iter_entries f st =
  for i = 0 to st.s_count - 1 do
    match st.s_arena.(i) with
    | Some e -> f e
    | None -> assert false
  done

(* --- The in-subtable hash -------------------------------------------

   A key's fingerprint under a subtable is [masked_fp st k = xor over
   the support fields f of word_hash f (mask word of f land k.(f))]:
   the flat store is keyed by [finish] of it, and the subtable's filter
   by [filter_bits] of it. Because the per-field terms combine by xor,
   each (field, mask word) term of a packet can be computed once and
   shared by every subtable whose mask has that word: the walk's
   precomputed [hashes]. Each term is already fully mixed, so a probe
   needs nothing after the xor. Inserts, removals and probes all use
   this one fingerprint, so its value only has to agree with itself. *)

(* Multiply, then fold the high half down: every output bit depends on
   every bit of the (at most 48-bit) field value. *)
let[@inline] word_hash f v =
  let y = (v lxor ((f + 1) * 0x3C6EF372FE94F82B)) * 0x2545F4914F6CDD1D in
  y lxor (y lsr 29)

let[@inline] finish fp = (fp lxor (fp lsr 31)) land max_int

(* The filter is one word, a two-probe Bloom filter over the present
   keys: [filter_bits fp] sets the bits numbered by the top two 6-bit
   fields of the fingerprint. Position 63 lies beyond the immediate int
   and contributes nothing, which only weakens the test: a probe checks
   [filter land filter_bits fp = filter_bits fp], the same bits an
   insert ORs in, so a present key always passes. *)
let[@inline] filter_bits fp =
  (1 lsl (fp lsr 57)) lor (1 lsl ((fp lsr 51) land 63))

let rec xor_words sup words kf k acc =
  if k < 0 then acc
  else begin
    let f = Array.unsafe_get sup k in
    xor_words sup words kf (k - 1)
      (acc lxor word_hash f (Array.unsafe_get words k land Array.unsafe_get kf f))
  end

(* [kf] is the flow's field array ([Flow.unsafe_fields]). *)
let masked_fp st kf =
  xor_words st.s_support st.s_words kf (Array.length st.s_support - 1) 0

(* --- The packed probe index ------------------------------------------

   [block] ints per subtable position: the filter, the support size,
   then the ids of the support's interned (field, mask word) pairs,
   padded with id 0, the zero word, whose hash is 0 for every packet. A
   subtable with more than [max_packed] support fields has no ids; the
   walk hashes it from its own words. *)

let block = 8
let max_packed = block - 2

let intern t f w =
  let key = (f lsl 48) lor w in
  match Hashtbl.find_opt t.word_ids key with
  | Some id -> id
  | None ->
    let id = t.n_words in
    if id >= Array.length t.word_field then begin
      let grow a = Array.append a (Array.make (max 16 (Array.length a)) 0) in
      t.word_field <- grow t.word_field;
      t.word_mask <- grow t.word_mask
    end;
    t.word_field.(id) <- f;
    t.word_mask.(id) <- w;
    t.n_words <- id + 1;
    Hashtbl.add t.word_ids key id;
    id

(* Write [st]'s block at its position; the index must hold it. *)
let write_block t st =
  let b = st.s_pos * block in
  let sz = Array.length st.s_support in
  t.index.(b) <- st.s_filter;
  t.index.(b + 1) <- sz;
  for k = 0 to max_packed - 1 do
    t.index.(b + 2 + k) <-
      (if sz <= max_packed && k < sz then intern t st.s_support.(k) st.s_words.(k)
       else 0)
  done

let ensure_index t n_slots =
  if Array.length t.index < n_slots * block then begin
    let ix = Array.make (n_slots * block) 0 in
    Array.blit t.index 0 ix 0 (Array.length t.index);
    t.index <- ix
  end

let push_subtable t st =
  let cap = Array.length t.arr in
  if t.n_tables = cap then begin
    let arr = Array.make (max 8 (2 * cap)) st in
    Array.blit t.arr 0 arr 0 cap;
    t.arr <- arr
  end;
  ensure_index t (Array.length t.arr);
  t.arr.(t.n_tables) <- st;
  st.s_pos <- t.n_tables;
  write_block t st;
  t.n_tables <- t.n_tables + 1

(* Replace the live prefix with [l]; any outstanding index is now stale,
   so the generation advances. The probe index is rebuilt from the new
   prefix, words included, so words of dropped subtables go with them. *)
let set_tables t l =
  t.arr <- Array.of_list l;
  t.n_tables <- Array.length t.arr;
  t.generation <- t.generation + 1;
  Hashtbl.reset t.word_ids;
  t.n_words <- 1;
  ensure_index t t.n_tables;
  Array.iteri (fun i st -> st.s_pos <- i; write_block t st) t.arr;
  sync_gauges t

let n_interned_words t = t.n_words - 1

let bump ?(by = 1) = function
  | Some c -> Pi_telemetry.Metrics.incr ~by c
  | None -> ()

(* The probe returns the arena's stored [Some] — nothing is allocated
   on a hit (or a miss: [None] is immediate). Top-level recursion, not
   an inner closure, for the same reason. *)
let rec probe_entries st flow h slot =
  if slot < 0 then None
  else begin
    match st.s_arena.(Flat_tbl.value st.s_tbl slot) with
    | Some e as r when Mask.equal_masked_on st.s_support st.s_mask e.key flow -> r
    | _ -> probe_entries st flow h (Flat_tbl.next st.s_tbl h slot)
  end

(* [h] passed the filter: look it up in the flat store. A filter false
   positive usually finds no slot, so [probe_entries] is only entered on
   a hash match. *)
let find_hashed st flow h =
  let slot = Flat_tbl.find_first st.s_tbl h in
  if slot < 0 then None else probe_entries st flow h slot

(* One probe of [st], hashing the flow from the subtable's own words. *)
let find_in_subtable st flow =
  let fp = masked_fp st (Flow.unsafe_fields flow) in
  let m = filter_bits fp in
  if st.s_filter land m <> m then None else find_hashed st flow (finish fp)

(* One probe of the subtable at position [ti] through its block, with
   the packet's word hashes at [hashes.(id)] (a one-packet row, see
   [fill_hashes]). The ids are below [n_words], which the row covers,
   and [ti < n_tables], so the loads are unchecked. Ids past the support
   name the zero word, so all six are xored whatever the support size. *)
let find_packed t ti flow =
  let ix = t.index and g = t.hashes in
  let b = ti * block in
  let fp =
    if Array.unsafe_get ix (b + 1) > max_packed then
      masked_fp (Array.unsafe_get t.arr ti) (Flow.unsafe_fields flow)
    else
      Array.unsafe_get g (Array.unsafe_get ix (b + 2))
      lxor Array.unsafe_get g (Array.unsafe_get ix (b + 3))
      lxor Array.unsafe_get g (Array.unsafe_get ix (b + 4))
      lxor Array.unsafe_get g (Array.unsafe_get ix (b + 5))
      lxor Array.unsafe_get g (Array.unsafe_get ix (b + 6))
      lxor Array.unsafe_get g (Array.unsafe_get ix (b + 7))
  in
  let m = filter_bits fp in
  if Array.unsafe_get ix b land m <> m then None
  else find_hashed (Array.unsafe_get t.arr ti) flow (finish fp)

let hit_entry t st e ~now ~pkt_len ~probes =
  e.last_used <- now;
  e.n_packets <- e.n_packets + 1;
  e.n_bytes <- e.n_bytes + pkt_len;
  st.s_hits <- st.s_hits + 1;
  t.hits <- t.hits + 1;
  t.probes <- t.probes + probes;
  bump t.c_hit;
  bump ~by:probes t.c_probes

let miss t ~probes =
  t.misses <- t.misses + 1;
  t.probes <- t.probes + probes;
  bump t.c_miss;
  bump ~by:probes t.c_probes

(* --- The walk --------------------------------------------------------

   One walk serves every megaflow lookup: a burst of [n] packets, [n = 1]
   for a single packet. It is split in two so the datapath can interleave
   its EMC bookkeeping: a {e pure} walk ([walk_batch]) that finds each
   packet's entry without touching statistics, then a per-packet commit
   ([commit_walk] / [commit_walk_hinted]), in packet order, that replays
   the hit/miss accounting of a sequential first-match scan. *)

type walk = {
  w_entry : entry option array;
  w_probes : int array;
  w_tbl : int array;
  mutable w_hints : int;
}

let create_walk n =
  { w_entry = Array.make n None;
    w_probes = Array.make n 0;
    w_tbl = Array.make n (-1);
    w_hints = -1 }

(* [w_probes] of a packet its hint resolved in the walk: its scan
   position is unknown. *)
let hinted = -1

(* Loop order. OVS dpcls probes one subtable for the whole burst before
   the next (subtable-major), loading each subtable's mask, support and
   table once per burst. That only pays once the subtable set outgrows
   the cache; below this many subtables, and for a single packet, the
   per-subtable pass over the burst costs more than it saves, and the
   walk goes packet by packet (packet-major). Measured crossover: see
   DESIGN.md §5b. *)
let subtable_major_min_tables = 128

(* The packed probe index pays off once the walk is long: a walk over at
   least [subtable_major_min_tables] subtables first hashes each of its
   packets against every interned word ([fill_hashes]), and then probes
   through the blocks. A shorter walk hashes each probe from the
   subtable's own words. Every subtable-major walk is therefore packed. *)
let packed_walk t = t.n_tables >= subtable_major_min_tables

(* Room for the word hashes of [n] packets, and their filter passes. *)
let ensure_hashes t n =
  let len = n * t.n_words in
  if Array.length t.hashes < len then
    t.hashes <- Array.make (max len (2 * Array.length t.hashes)) 0;
  if Array.length t.cands < n then t.cands <- Array.make n 0

(* [flow]'s hash of every interned word, 0 for the zero word, as packet
   [j] of [n]: word [id]'s hash of the burst's packets is the run
   [hashes.(id * n) ..], so a subtable-major probe reads each of its
   words' runs in order. A one-packet row ([n = 1]) is [hashes.(id)]. *)
let fill_hashes t flow j n =
  let g = t.hashes and kf = Flow.unsafe_fields flow in
  g.(j) <- 0;
  for id = 1 to t.n_words - 1 do
    let f = t.word_field.(id) in
    g.((id * n) + j) <- word_hash f (t.word_mask.(id) land kf.(f))
  done

(* Packet-major walk of slot [j] from subtable [ti] on: the first match,
   or a miss that paid every probe. Writes all three columns. With
   [packed], the probes read the packet's one-packet row of word
   hashes; otherwise each hashes from the subtable's words. Top-level
   recursion, not an inner closure, so the walk allocates nothing; a
   hit stores the arena's own option. *)
let rec walk_packet t w flow j ti packed =
  if ti >= t.n_tables then begin
    w.w_entry.(j) <- None;
    w.w_probes.(j) <- ti;
    w.w_tbl.(j) <- -1
  end
  else begin
    match
      if packed then find_packed t ti flow else find_in_subtable t.arr.(ti) flow
    with
    | Some _ as r ->
      w.w_entry.(j) <- r;
      w.w_probes.(j) <- ti + 1;
      w.w_tbl.(j) <- ti
    | None -> walk_packet t w flow j (ti + 1) packed
  end

(* Subtable-major resolution of packet [j] under subtable [ti]. *)
let resolve t w j ti r =
  w.w_entry.(j) <- r;
  w.w_probes.(j) <- ti + 1;
  w.w_tbl.(j) <- ti;
  t.w_remaining <- t.w_remaining - 1

(* Subtable-major: one subtable over the still-unresolved packets
   ([w_tbl.(j) < 0]). The probe count is not tallied per probe: a packet
   resolved under subtable [ti] paid [ti + 1] probes and one that misses
   everywhere paid [n_tables] (the column's initial value). The
   unresolved count lives in [t.w_remaining] (a [ref] would be
   heap-allocated). [tbl] is bound once: under attack most slots of a
   burst resolve early while one covert packet walks on, so the loop is
   mostly the [tbl.(j) < 0] test, and reloading the column from [w] on
   every test measured 5–15% slower at 8192 masks. The loop runs
   [n_tables] times per packet, so its reads are unchecked: [walk_batch]
   has already read [idx.(j)], [flows.(idx.(j))] and written [tbl.(j)]
   for every [j < n] with checked accesses (about 8% off the walk). *)
let walk_table t st flows idx n w ti =
  let tbl = w.w_tbl in
  for j = 0 to n - 1 do
    if Array.unsafe_get tbl j < 0 then begin
      match
        find_in_subtable st (Array.unsafe_get flows (Array.unsafe_get idx j))
      with
      | Some _ as r -> resolve t w j ti r
      | None -> ()
    end
  done

(* The same over the probe index, in two passes. The first reads the
   block once and tests each unresolved packet's fingerprint — six loads
   from the word-hash runs and their xor; ids past the support name the
   zero word, whose run is all 0 — against the filter, listing the
   packets that pass in [cands]; it calls nothing, so its loop state
   stays in registers. The second takes the few passing packets to the
   subtable's flat store. A subtable with more than [max_packed] fields
   has no ids and is walked from its own words. *)
(* Packet [j]'s fingerprint from the runs at offsets [o0 .. o5] of the
   word-hash table. Top-level, not a closure over the offsets, so calling
   it allocates nothing. *)
let[@inline] run_fp g o0 o1 o2 o3 o4 o5 j =
  Array.unsafe_get g (o0 + j) lxor Array.unsafe_get g (o1 + j)
  lxor Array.unsafe_get g (o2 + j) lxor Array.unsafe_get g (o3 + j)
  lxor Array.unsafe_get g (o4 + j) lxor Array.unsafe_get g (o5 + j)

let walk_table_packed t flows idx n w ti =
  let ix = t.index in
  let b = ti * block in
  if ix.(b + 1) > max_packed then walk_table t t.arr.(ti) flows idx n w ti
  else begin
    (* [ti < n_tables], so the index holds the whole block *)
    let g = t.hashes and tbl = w.w_tbl and cands = t.cands in
    let filter = Array.unsafe_get ix b in
    let o0 = Array.unsafe_get ix (b + 2) * n
    and o1 = Array.unsafe_get ix (b + 3) * n
    and o2 = Array.unsafe_get ix (b + 4) * n
    and o3 = Array.unsafe_get ix (b + 5) * n
    and o4 = Array.unsafe_get ix (b + 6) * n
    and o5 = Array.unsafe_get ix (b + 7) * n in
    let nc = ref 0 in
    for j = 0 to n - 1 do
      if Array.unsafe_get tbl j < 0 then begin
        let m = filter_bits (run_fp g o0 o1 o2 o3 o4 o5 j) in
        if filter land m = m then begin
          Array.unsafe_set cands !nc j;
          incr nc
        end
      end
    done;
    for c = 0 to !nc - 1 do
      let j = cands.(c) in
      match
        find_hashed t.arr.(ti) (Array.unsafe_get flows (Array.unsafe_get idx j))
          (finish (run_fp g o0 o1 o2 o3 o4 o5 j))
      with
      | Some _ as r -> resolve t w j ti r
      | None -> ()
    done
  end

let rec walk_tables t flows idx n w ti =
  if t.w_remaining > 0 && ti < t.n_tables then begin
    walk_table_packed t flows idx n w ti;
    walk_tables t flows idx n w (ti + 1)
  end

(* Kernel flavour: probe the subtable the packet's hint names first, so
   a warm hinted hit costs one probe of wall time whatever the mask
   count. On a hit the packet's scan position stays unknown ([hinted]);
   the commit computes it only if the hint has changed by then. *)
let hint_hit t cache flow w j =
  let h = Mask_cache.hint cache flow in
  h >= 0 && h < t.n_tables
  &&
  match find_in_subtable t.arr.(h) flow with
  | Some _ as r ->
    w.w_entry.(j) <- r;
    w.w_probes.(j) <- hinted;
    w.w_tbl.(j) <- h;
    true
  | None -> false

let walk_batch t ?hints flows ~idx ~n w =
  (match hints with
   | Some cache ->
     (* Hints recorded before a resort or compaction may name the wrong
        mask: drop them before any is probed. The subtable array cannot
        move between the walk and its commits, so they see the same
        generation. *)
     if cache.Mask_cache.generation <> t.generation then
       Mask_cache.sync_generation cache t.generation;
     w.w_hints <- cache.Mask_cache.version
   | None -> ());
  let packed = packed_walk t in
  if n = 1 || t.n_tables < subtable_major_min_tables then begin
    if packed then ensure_hashes t 1;
    for j = 0 to n - 1 do
      let flow = flows.(idx.(j)) in
      match hints with
      | Some cache when hint_hit t cache flow w j -> ()
      | Some _ | None ->
        (* packets walk one after another, so one row serves them all *)
        if packed then fill_hashes t flow 0 1;
        walk_packet t w flow j 0 packed
    done
  end
  else begin
    t.w_remaining <- n;
    for j = 0 to n - 1 do
      let flow = flows.(idx.(j)) in
      w.w_tbl.(j) <- -1;
      match hints with
      | Some cache when hint_hit t cache flow w j ->
        t.w_remaining <- t.w_remaining - 1
      | Some _ | None ->
        w.w_entry.(j) <- None;
        w.w_probes.(j) <- t.n_tables
    done;
    ensure_hashes t n;
    for j = 0 to n - 1 do
      if w.w_tbl.(j) < 0 then fill_hashes t flows.(idx.(j)) j n
    done;
    walk_tables t flows idx n w 0
  end

let commit_walk t w j ~now ~pkt_len =
  let probes = w.w_probes.(j) in
  match w.w_entry.(j) with
  | Some e -> hit_entry t t.arr.(w.w_tbl.(j)) e ~now ~pkt_len ~probes
  | None -> miss t ~probes

(* The hint is read {e live}, in packet order: an earlier packet of the
   burst may have recorded over it since the walk. A hint hit is
   authoritative and costs one probe. If the cache has not been written
   since the walk, the hint the walk probed is still the live one and
   its answer stands (the megaflow is unmutated since the walk too).
   Otherwise the hint is read and probed again. A packet that misses
   its hint pays the first-match scan, plus one probe if the failed hint
   was in range (an out-of-range hint never reached a subtable), and the
   scan's subtable becomes the flow's hint. The cache is first
   synchronised with the subtable generation: after a resort or
   compaction a stale index could name a different mask. *)
let commit_walk_hinted t cache flow w j ~now ~pkt_len =
  let by_hint = w.w_probes.(j) = hinted in
  if by_hint && w.w_hints = cache.Mask_cache.version then begin
    (match w.w_entry.(j) with
     | Some e -> hit_entry t t.arr.(w.w_tbl.(j)) e ~now ~pkt_len ~probes:1
     | None -> assert false);
    Mask_cache.note_hit cache;
    w.w_probes.(j) <- 1
  end
  else begin
    Mask_cache.sync_generation cache t.generation;
    let h = Mask_cache.hint cache flow in
    let in_range = h >= 0 && h < t.n_tables in
    match if in_range then find_in_subtable t.arr.(h) flow else None with
    | Some e as r ->
      hit_entry t t.arr.(h) e ~now ~pkt_len ~probes:1;
      Mask_cache.note_hit cache;
      w.w_entry.(j) <- r;
      w.w_probes.(j) <- 1;
      w.w_tbl.(j) <- h
    | None ->
      Mask_cache.note_miss cache;
      (* resolved by a hint that has been overwritten since *)
      if by_hint then walk_packet t w flow j 0 false;
      if in_range then w.w_probes.(j) <- w.w_probes.(j) + 1;
      if w.w_tbl.(j) >= 0 then Mask_cache.record cache flow w.w_tbl.(j);
      commit_walk t w j ~now ~pkt_len
  end

(* Userspace-dpcls-style ranking: periodically sort subtables so the
   most-hit masks are probed first (OVS's pvector). Decays counts so
   the ordering tracks recent traffic. *)
let resort_by_hits t =
  let live = Array.sub t.arr 0 t.n_tables in
  let l = List.stable_sort (fun a b -> Int.compare b.s_hits a.s_hits)
      (Array.to_list live) in
  List.iter (fun st -> st.s_hits <- st.s_hits / 2) l;
  set_tables t l

(* [st]'s filter moved to [f]: keep its block's copy in step. *)
let set_filter t st f =
  st.s_filter <- f;
  t.index.(st.s_pos * block) <- f

(* A removal leaves the filter a superset, which is all a probe needs;
   while the subtable is this small it is recomputed exactly instead, so
   masks that drain to one entry shed the stale bits. *)
let exact_filter_max = 8

let entry_fp st (e : entry) = masked_fp st (Flow.unsafe_fields e.key)

let remove_entry t st (e : entry) =
  let h = finish (entry_fp st e) in
  (* Locate the hash slot pointing at [e] (physical identity — several
     arena cells can share a hash). *)
  let rec find_slot slot =
    if slot < 0 then assert false
    else begin
      match st.s_arena.(Flat_tbl.value st.s_tbl slot) with
      | Some x when x == e -> slot
      | _ -> find_slot (Flat_tbl.next st.s_tbl h slot)
    end
  in
  let slot = find_slot (Flat_tbl.find_first st.s_tbl h) in
  let idx = Flat_tbl.value st.s_tbl slot in
  Flat_tbl.remove_slot st.s_tbl slot;
  let last = st.s_count - 1 in
  if idx <> last then begin
    (* Swap-with-last compaction: redirect the moved entry's hash slot
       to its new arena index. *)
    match st.s_arena.(last) with
    | Some moved as m ->
      st.s_arena.(idx) <- m;
      let hm = finish (entry_fp st moved) in
      let rec fix s =
        if s < 0 then assert false
        else if Flat_tbl.value st.s_tbl s = last then
          Flat_tbl.set_value st.s_tbl s idx
        else fix (Flat_tbl.next st.s_tbl hm s)
      in
      fix (Flat_tbl.find_first st.s_tbl hm)
    | None -> assert false
  end;
  st.s_arena.(last) <- None;
  st.s_count <- last;
  if last <= exact_filter_max then begin
    let f = ref 0 in
    iter_entries (fun x -> f := !f lor filter_bits (entry_fp st x)) st;
    set_filter t st !f
  end;
  e.alive <- false;
  t.n <- t.n - 1;
  sync_gauges t

let drop_empty_subtables t =
  let any_dead = ref false in
  iter_subtables (fun st -> if st.s_count = 0 then any_dead := true) t;
  if !any_dead then begin
    let live = ref [] in
    iter_subtables
      (fun st ->
        if st.s_count = 0 then Tables.Mask_tbl.remove t.by_mask st.s_mask
        else live := st :: !live)
      t;
    set_tables t (List.rev !live)
  end

(* LRU eviction used when the flow limit is hit: evict the oldest ~5% so
   insertion stays amortised-cheap, mimicking the revalidator's reaction
   to flow-limit pressure.

   Bounded selection: a size-k max-heap over [last_used] (root = the
   youngest of the k candidates) scanned once over the live entries —
   O(n log k) and O(k) space, instead of materialising an (st, e) pair
   per entry and full-sorting all n to drop 5%. *)
let evict_lru t =
  let k = max 1 (t.n / 20) in
  let heap_t = Array.make k 0. in             (* last_used, heap-ordered *)
  let heap_st = Array.make k None in          (* owning subtable *)
  let heap_e : entry option array = Array.make k None in
  let size = ref 0 in
  let swap i j =
    let tt = heap_t.(i) and st = heap_st.(i) and e = heap_e.(i) in
    heap_t.(i) <- heap_t.(j); heap_st.(i) <- heap_st.(j); heap_e.(i) <- heap_e.(j);
    heap_t.(j) <- tt; heap_st.(j) <- st; heap_e.(j) <- e
  in
  let rec sift_up i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if heap_t.(p) < heap_t.(i) then begin swap p i; sift_up p end
    end
  in
  let rec sift_down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = if l < !size && heap_t.(l) > heap_t.(i) then l else i in
    let m = if r < !size && heap_t.(r) > heap_t.(m) then r else m in
    if m <> i then begin swap i m; sift_down m end
  in
  let offer st e =
    if !size < k then begin
      heap_t.(!size) <- e.last_used;
      heap_st.(!size) <- Some st;
      heap_e.(!size) <- Some e;
      incr size;
      sift_up (!size - 1)
    end
    else if e.last_used < heap_t.(0) then begin
      heap_t.(0) <- e.last_used;
      heap_st.(0) <- Some st;
      heap_e.(0) <- Some e;
      sift_down 0
    end
  in
  iter_subtables (fun st -> iter_entries (fun e -> offer st e) st) t;
  for i = 0 to !size - 1 do
    match (heap_st.(i), heap_e.(i)) with
    | Some st, Some e ->
      remove_entry t st e;
      bump t.c_evicted
    | _ -> ()
  done;
  drop_empty_subtables t

let has_mask t mask = Tables.Mask_tbl.mem t.by_mask mask

let insert t ~key ~mask ~action ~revision ~now ?origin () =
  if t.n >= t.cfg.max_entries then evict_lru t;
  let st =
    match Tables.Mask_tbl.find_opt t.by_mask mask with
    | Some st -> st
    | None ->
      let support = Mask.support mask in
      let st =
        { s_mask = mask; s_support = support;
          s_words = Array.map (fun i -> Mask.get mask (Field.of_index i)) support;
          s_tbl = Flat_tbl.create (); s_arena = [||];
          s_count = 0; s_hits = 0; s_filter = 0; s_pos = 0 }
      in
      Tables.Mask_tbl.add t.by_mask mask st;
      push_subtable t st;
      bump t.c_mask_created;
      st
  in
  let key = Mask.apply mask key in
  (match find_in_subtable st key with
   | Some old -> remove_entry t st old
   | None -> ());
  let e =
    { key; mask; action; revision; created = now; origin; last_used = now;
      n_packets = 0; n_bytes = 0; alive = true }
  in
  let cap = Array.length st.s_arena in
  if st.s_count = cap then begin
    let na = Array.make (max 8 (cap * 2)) None in
    Array.blit st.s_arena 0 na 0 cap;
    st.s_arena <- na
  end;
  st.s_arena.(st.s_count) <- Some e;
  let fp = entry_fp st e in
  Flat_tbl.add st.s_tbl (finish fp) st.s_count;
  set_filter t st (st.s_filter lor filter_bits fp);
  st.s_count <- st.s_count + 1;
  t.n <- t.n + 1;
  sync_gauges t;
  e

let revalidate t ~now ?(keep = fun _ -> true) () =
  let evicted = ref 0 in
  iter_subtables
    (fun st ->
      let dead = ref [] in
      iter_entries
        (fun e ->
          if now -. e.last_used > t.cfg.idle_timeout || not (keep e) then
            dead := e :: !dead)
        st;
      List.iter
        (fun e ->
          remove_entry t st e;
          bump t.c_evicted;
          incr evicted)
        !dead)
    t;
  drop_empty_subtables t;
  !evicted

let flush t =
  iter_subtables (fun st -> iter_entries (fun e -> e.alive <- false) st) t;
  Tables.Mask_tbl.reset t.by_mask;
  t.n <- 0;
  set_tables t []

let n_entries t = t.n
let n_masks t = t.n_tables

let masks t =
  List.init t.n_tables (fun i -> t.arr.(i).s_mask)

type mask_stat = {
  ms_mask : Mask.t;
  ms_entries : int;
  ms_hits : int;
  ms_capacity : int;
  ms_mean_probe : float;
  ms_max_probe : int;
}

let subtable_stats t =
  List.init t.n_tables (fun i ->
      let st = t.arr.(i) in
      let mean, maxp = Flat_tbl.probe_stats st.s_tbl in
      { ms_mask = st.s_mask; ms_entries = st.s_count; ms_hits = st.s_hits;
        ms_capacity = Flat_tbl.capacity st.s_tbl;
        ms_mean_probe = mean; ms_max_probe = maxp })

let entries t =
  let acc = ref [] in
  for i = t.n_tables - 1 downto 0 do
    let st = t.arr.(i) in
    for j = st.s_count - 1 downto 0 do
      match st.s_arena.(j) with
      | Some e -> acc := e :: !acc
      | None -> ()
    done
  done;
  !acc

let pp_entry ~now ppf e =
  let first = ref true in
  List.iter
    (fun f ->
      let m = Mask.get e.mask f in
      if m <> 0 then begin
        if not !first then Format.pp_print_char ppf ',';
        first := false;
        let v = Flow.get e.key f in
        let pp_value ppf v =
          match f with
          | Field.Ip_src | Field.Ip_dst ->
            Pi_pkt.Ipv4_addr.pp ppf (Int32.of_int v)
          | Field.In_port | Field.Eth_src | Field.Eth_dst | Field.Eth_type
          | Field.Vlan | Field.Ip_proto | Field.Ip_tos | Field.Ip_ttl
          | Field.Tp_src | Field.Tp_dst | Field.Tcp_flags ->
            Format.fprintf ppf "%d" v
        in
        match Mask.prefix_len e.mask f with
        | Some n when n = Field.width f ->
          Format.fprintf ppf "%s=%a" (Field.name f) pp_value v
        | Some n -> Format.fprintf ppf "%s=%a/%d" (Field.name f) pp_value v n
        | None -> Format.fprintf ppf "%s=%a&0x%x" (Field.name f) pp_value v m
      end)
    Field.all;
  if !first then Format.pp_print_string ppf "match=any";
  (* dpctl prints how long ago the entry was last hit, not an absolute
     stamp; entries that never carried a packet show "never". *)
  Format.fprintf ppf " packets:%d bytes:%d " e.n_packets e.n_bytes;
  if e.n_packets = 0 then Format.pp_print_string ppf "used:never"
  else Format.fprintf ppf "used:%.2fs" (Float.max 0. (now -. e.last_used));
  Format.fprintf ppf " actions:%s" (Action.to_string e.action);
  match e.origin with
  | Some o -> Format.fprintf ppf " origin(%a)" Provenance.pp_origin o
  | None -> ()

let dump ?max ~now ppf t =
  let printed = ref 0 in
  let limit = match max with Some m -> m | None -> max_int in
  iter_subtables
    (fun st ->
      iter_entries
        (fun e ->
          if !printed < limit then begin
            Format.fprintf ppf "%a@." (pp_entry ~now) e;
            incr printed
          end)
        st)
    t;
  if t.n > limit then Format.fprintf ppf "... (%d more)@." (t.n - limit)

let hits t = t.hits
let misses t = t.misses
let total_probes t = t.probes

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.probes <- 0

(** The megaflow cache: the second fast-path layer, organised by Tuple
    Space Search.

    A lookup probes one hash table per distinct mask, in scan order
    (mask-creation order unless {!resort_by_hits} ranks them), and stops
    at the first hit — which is why the lookup cost is linear in the
    number of masks, the algorithmic deficiency the paper attacks. A
    miss necessarily probes {e every} mask. There is one implementation
    of that walk, {!walk_batch}, for bursts and single packets alike. *)

type entry = {
  key : Pi_classifier.Flow.t;   (** pre-masked *)
  mask : Pi_classifier.Mask.t;
  action : Action.t;
  revision : int;               (** slow-path revision that produced it *)
  created : float;
  origin : Provenance.origin option;
      (** who minted it — port / tenant / rule of the upcall that
          installed the entry ([None] when provenance is off) *)
  mutable last_used : float;
  mutable n_packets : int;
  mutable n_bytes : int;
  mutable alive : bool;
      (** cleared on eviction so stale microflow-cache references can be
          detected *)
}

type t

type config = {
  max_entries : int;      (** flow limit (OVS flow-limit, default 200000) *)
  idle_timeout : float;   (** seconds before an unused entry is evicted *)
}

val default_config : config

val create : ?config:config -> ?metrics:Pi_telemetry.Metrics.t -> unit -> t
(** When [metrics] is given, lookups/inserts/evictions also report into
    the registry's [mf_hit], [mf_miss], [mf_probes], [mask_created] and
    [megaflow_evicted] counters, and the {e live} [n_masks] and
    [n_megaflows] gauges track the current sizes (unlike the cumulative
    [mask_created] counter, which evictions never decrease). *)

(** {2 Lookup: one walk, then a commit per packet}

    Every megaflow lookup, a burst or a single packet, is one pure walk
    ({!walk_batch}) followed by one commit per packet, in packet order
    ({!commit_walk}, or {!commit_walk_hinted} for the kernel flavour).
    The datapath interleaves its EMC bookkeeping between the two. The
    commits replay exactly the statistics of a sequential first-match
    scan of each packet in turn. *)

type walk = {
  w_entry : entry option array;
      (** the matching entry — the stored arena option, so nothing is
          allocated — or [None] *)
  w_probes : int array;
      (** subtable probes a first-match scan pays: the matching
          subtable's position, or the mask count on a miss *)
  w_tbl : int array;  (** the matching subtable's index, or [-1] *)
  mutable w_hints : int;
      (** the mask cache's [version] when a hinted walk read its hints *)
}
(** Walk results, one slot per walked packet. A commit rewrites its slot
    with the authoritative result (a hint hit's entry and probe count). *)

val create_walk : int -> walk
(** Result columns for bursts of up to [n] packets. *)

val walk_batch :
  t -> ?hints:Mask_cache.t -> Pi_classifier.Flow.t array -> idx:int array ->
  n:int -> walk -> unit
(** Pure walk of the [n] packets [flows.(idx.(0)) .. flows.(idx.(n-1))]
    into slots [0, n) of the result columns. The cache is not mutated
    and no statistics are touched; commit every slot before the cache is
    next mutated, or the results are stale.

    The walk picks its loop order from [n] and the mask count:
    packet-major (each packet probes subtables in scan order until its
    first match) for one packet or few masks, subtable-major (OVS dpcls:
    each subtable is probed for the whole burst before the next, so its
    mask and table are loaded once per burst) otherwise. Both give the
    same results.

    With [hints] (kernel flavour), the walk first drops the
    {!Mask_cache}'s hints if the subtable array was reordered since they
    were recorded (see {!generation}), then each packet first probes the
    subtable its hint names, so a warm hinted hit costs one probe of
    wall time; such slots must be committed with {!commit_walk_hinted}.
    Allocation-free. *)

val commit_walk : t -> walk -> int -> now:float -> pkt_len:int -> unit
(** [commit_walk t w j] replays slot [j]'s hit or miss: entry usage
    stamps and the hit/miss/probe counters. *)

val commit_walk_hinted :
  t -> Mask_cache.t -> Pi_classifier.Flow.t -> walk -> int -> now:float ->
  pkt_len:int -> unit
(** Kernel-flavour commit of slot [j] for [flow]. The hint is read live,
    in packet order, so hint hits, misses and recorded hints are those of
    a per-packet lookup. A correct hint costs one probe. A stale
    in-range hint costs its probe on top of the first-match scan; a hint
    that never reached a subtable (out of range) costs nothing. The
    scan's subtable is recorded as the new hint. The cache is first
    invalidated if the subtable array has been reordered since the hints
    were recorded (see {!generation}). *)

val generation : t -> int
(** Incremented whenever subtable indices are invalidated (ranking
    resort, empty-subtable compaction, flush). Appending a new mask
    leaves existing indices valid and does not change the generation.
    {!commit_walk_hinted} uses this to drop stale {!Mask_cache} hints. *)

val has_mask : t -> Pi_classifier.Mask.t -> bool
(** O(1) mask-membership test (the [mask_limit] check), replacing a
    linear walk over {!masks}. *)

val resort_by_hits : t -> unit
(** Userspace-dpcls flavour: reorder the subtable scan so the most-hit
    masks come first (OVS's pvector ranking), halving hit counts so the
    ranking tracks recent traffic. Typically driven by the revalidator
    (see {!Datapath.config}). *)

val insert :
  t -> key:Pi_classifier.Flow.t -> mask:Pi_classifier.Mask.t ->
  action:Action.t -> revision:int -> now:float ->
  ?origin:Provenance.origin -> unit -> entry
(** Install a megaflow produced by a slow-path upcall. If the flow limit
    is exceeded, least-recently-used entries are evicted first. If an
    entry with the same masked key exists it is replaced. [origin]
    stamps the entry with its provenance. *)

val revalidate : t -> now:float -> ?keep:(entry -> bool) -> unit -> int
(** Evict idle entries ([now - last_used > idle_timeout]) and entries
    rejected by [keep] (e.g. produced by a stale slow-path revision).
    Empty subtables (masks) are dropped. Returns entries evicted. *)

val flush : t -> unit

val n_entries : t -> int

val n_masks : t -> int
(** O(1): maintained as a counter, not a list length. *)

val n_interned_words : t -> int
(** Introspection of the packed probe index: the number of distinct
    (field, mask word) pairs it currently interns for the walk's shared
    word hashes. Words come only from live subtables of at most six
    support fields and are re-interned whenever subtables are reordered
    or dropped, so this never exceeds the sum of the live subtables'
    support sizes. *)

val masks : t -> Pi_classifier.Mask.t list
(** In scan order. *)

type mask_stat = {
  ms_mask : Pi_classifier.Mask.t;
  ms_entries : int;   (** live entries under this mask *)
  ms_hits : int;
      (** subtable hit count — decayed by {!resort_by_hits}, so it
          tracks recent traffic, like OVS's pvector priorities *)
  ms_capacity : int;
      (** slots in the subtable's flat hash table (a power of two) *)
  ms_mean_probe : float;
  ms_max_probe : int;
      (** mean / worst displacement-based probe length over the live
          entries (1 = every entry sits in its home slot) — the
          open-addressing health of this subtable *)
}

val subtable_stats : t -> mask_stat list
(** One {!mask_stat} per subtable, in scan order — the per-mask view of
    [ovs-appctl dpctl/dump-flows -m] / subtable ranking. *)

val entries : t -> entry list

val pp_entry : now:float -> Format.formatter -> entry -> unit
(** ovs-dpctl-style rendering:
    [ip_src=10.0.0.0/9,tp_dst=80 packets:3 bytes:300 used:4.20s actions:drop].
    As in [ovs-appctl dpctl/dump-flows], [used] is the {e age} of the
    last hit ([now - last_used]); entries never hit print [used:never].
    Entries carrying provenance append [origin(port:.. tenant:.. ..)]. *)

val dump : ?max:int -> now:float -> Format.formatter -> t -> unit
(** Print entries in scan order, one per line ([max] defaults to all) —
    the equivalent of [ovs-dpctl dump-flows] at time [now]. *)

val hits : t -> int
val misses : t -> int
val total_probes : t -> int
(** Cumulative subtable probes across all lookups. *)

val reset_stats : t -> unit

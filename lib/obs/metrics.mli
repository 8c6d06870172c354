(** Process-wide metrics registry: named, labeled counters, gauges, and
    log-scale histograms.

    Same discipline as {!Prof}: disabled by default, and every update
    entry point first tests one boolean, so instrumented code paths cost
    nothing measurable when metrics are off.  When enabled, updates are
    O(1) hashtable operations keyed by (name, sorted labels).

    A {!snapshot} captures the whole registry at a point in time;
    {!diff} subtracts an earlier snapshot from a later one (counters and
    histograms subtract, gauges keep the newer value), which is how
    callers attribute traffic to one phase of a longer run.  Snapshots
    serialize to JSON with a stable ordering, so they can be embedded in
    reports and compared across runs.

    Domain-safe: every update and snapshot runs under one registry
    mutex (after the enabled test), so counters bumped from worker
    domains — arena gauges, exec counters — sum exactly; no update is
    lost to a racing read-modify-write. *)

type labels = (string * string) list
(** Label pairs; order does not matter (keys are canonicalized). *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop every registered metric. *)

val set_clock : (unit -> float) -> unit
(** Replace the wall clock (seconds) used to stamp snapshots.  For
    deterministic tests. *)

val use_default_clock : unit -> unit

(** {2 Updates} *)

val counter : ?labels:labels -> string -> float -> unit
(** [counter name v] adds [v] to a monotonically increasing counter. *)

val gauge : ?labels:labels -> string -> float -> unit
(** [gauge name v] sets a gauge to its most recent value. *)

val gauge_max : ?labels:labels -> string -> float -> unit
(** [gauge_max name v] keeps the maximum value ever set — e.g. peak
    scratchpad occupancy. *)

val observe : ?labels:labels -> string -> float -> unit
(** [observe name v] records [v] into a log-scale histogram: bucket
    [k] counts observations with [2^(k-1) < v <= 2^k] ([v <= 0] lands
    in an underflow bucket).  The histogram also tracks count and
    sum, so means survive serialization. *)

(** {2 Snapshots} *)

type value =
  | Counter of float
  | Gauge of float
  | Histogram of { count : int; sum : float; buckets : (int * int) list }
      (** [(bucket exponent, count)], ascending; underflow is
          exponent [min_int], rendered as ["le0"] in JSON *)

type sample = {
  m_name : string;
  m_labels : labels;  (** sorted by key *)
  m_value : value;
}

type snapshot = {
  at_s : float;       (** clock reading at capture *)
  samples : sample list;  (** sorted by (name, labels) *)
}

val snapshot : unit -> snapshot
(** Capture the registry (empty when metrics are disabled or nothing
    was recorded). *)

val diff : snapshot -> snapshot -> snapshot
(** [diff earlier later]: counters and histograms subtract (clamped at
    zero), gauges take the later value; metrics absent earlier pass
    through unchanged.  [at_s] is the later snapshot's. *)

val find : ?labels:labels -> snapshot -> string -> value option
(** Look up one metric in a snapshot. *)

val counter_value : ?labels:labels -> snapshot -> string -> float
(** The counter's value, or [0.] when absent (or not a counter). *)

val quantile : value -> float -> float option
(** [quantile v q] estimates the [q]-quantile (clamped to [0,1]) of a
    {!Histogram} by linear interpolation inside the log2 bucket that
    crosses rank [q*count]: bucket [k] spans [(2^(k-1), 2^k]] and the
    underflow bucket is exactly [0].  Coarse above (log-scale
    resolution) but monotone in [q].  [None] for non-histograms or
    empty histograms. *)

val snapshot_json : snapshot -> Json.t
(** [{"at_s": ..., "metrics": [{"name","labels","type",...}]}] with
    samples in snapshot order.  Histograms carry [p50]/[p95]/[p99]
    fields (from {!quantile}) alongside count/sum/buckets. *)

val pp : Format.formatter -> snapshot -> unit
(** One metric per line, for human consumption. *)

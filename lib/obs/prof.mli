(** The span and counter engine: one recording, two views.

    Each probe pushes a label on a per-domain stack and accumulates
    calls, errors and wall time keyed by the full stack, so the same
    pass (say Fourier–Motzkin projection) is costed separately under
    dependence analysis and under code generation.  Memory is bounded
    by the number of distinct label stacks, never by the call count.
    Counters bumped with {!add} are attributed to the current stack.

    With the timeline on ([enable ~timeline:true], what [--trace FILE]
    selects), the same probes also keep every completed span, so the
    recording renders as a Chrome [trace_event] timeline
    ({!chrome_json}) or a tree ({!pp_tree}) besides the aggregate
    views below.  The two views agree: per label, the timeline's event
    count, summed duration, errors and counters equal the snapshot's.

    Disabled by default; every entry point tests one boolean first, and
    the disabled path of the [wrap] forms performs no allocation — safe
    to leave in the hottest loops.  Domain-safe: each domain owns its
    own stack and tables; [snapshot] merges them all.

    Snapshots export as a collapsed-stack string that external
    flamegraph tools (flamegraph.pl, speedscope, inferno) accept
    directly; a top-K self-time table; the ["compile_profile"] JSON
    section embedded in bench artifacts and [emsc profile]/[analyze
    --json] output, which {!Emsc_audit.Bench_compare} diffs for
    regression attribution; and the per-label ["pass_timings"]. *)

(** {2 Lifecycle} *)

val enabled : unit -> bool

val enable : ?timeline:bool -> unit -> unit
(** Start recording; [timeline] (default [false]) also keeps completed
    spans for {!chrome_json}/{!pp_tree}.  Also forced on (without the
    timeline) at startup when the [EMSC_PROF] environment variable is
    set to anything but [""], ["0"] or ["false"] — lets CI run an
    unmodified binary profiled for the overhead budget check. *)

val disable : unit -> unit
(** Stop recording.  Recorded data survives until {!reset}. *)

val reset : unit -> unit
(** Drop all recorded data from every domain. *)

val set_clock : (unit -> float) -> unit
(** Replace the wall clock (seconds); for deterministic tests. *)

val use_default_clock : unit -> unit

(** {2 Recording} *)

val probe : ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [probe name f] runs [f] with [name] pushed on this domain's label
    stack, accumulating one call and its wall time under the full
    stack.  An exception is counted as an error, recorded and
    re-raised.  [args] annotate the timeline span only.  Disabled:
    calls [f] directly (the closure at the call-site is the only
    cost). *)

val wrap : string -> ('a -> 'b) -> 'a -> 'b
(** [wrap name f x]: like [probe] but fully applied, so a hot
    call-site [let g x = Prof.wrap "g" g_impl x] allocates nothing
    when profiling is off. *)

val wrap2 : string -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c

val add : string -> float -> unit
(** [add name v] bumps counter [name] attributed to the current label
    stack (e.g. simplex pivots under whichever pass triggered them),
    and to the innermost open timeline span.  Outside any probe it
    lands on the empty stack.  No-op when disabled. *)

(** {2 Snapshots} *)

type frame = {
  f_stack : string list;  (** labels, outermost first; [[]] holds the
                              counters bumped outside any probe *)
  f_calls : int;
  f_errors : int;         (** calls that closed by exception *)
  f_total_s : float;      (** inclusive wall seconds *)
  f_self_s : float;       (** total minus probed children, clamped at 0 *)
  f_counters : (string * float) list;  (** sorted by name *)
}

type profile = frame list
(** Sorted by stack, so a fixed workload under a fixed clock snapshots
    deterministically. *)

val snapshot : unit -> profile
(** Merge every domain's tables.  Establish a happens-before edge
    (join your domains) before trusting cross-domain numbers. *)

val attributed_s : profile -> float
(** Total wall seconds under root (depth-1) frames — the denominator
    for "how much of the pipeline is attributed". *)

(** {2 Per-pass aggregation} *)

type pass = {
  p_name : string;   (** leaf label, summed across all stacks *)
  p_calls : int;
  p_errors : int;
  p_total_s : float;
  p_self_s : float;
  p_counters : (string * float) list;  (** sorted by name *)
}

val passes : profile -> pass list
(** Aggregated by leaf label, sorted by self time (descending).  The
    empty stack has no label and is left out. *)

val top_self : ?k:int -> profile -> pass list
(** First [k] (default 15) of [passes]. *)

(** {2 Export} *)

val collapsed : profile -> string
(** Collapsed-stack text: one ["a;b;c <self µs>"] line per labelled
    stack. *)

val write_collapsed : string -> profile -> unit

val pp_top : ?k:int -> Format.formatter -> profile -> unit
(** Human top-K self-time table plus an attributed-total footer. *)

val json : ?wall_ms:float -> profile -> Json.t
(** The ["compile_profile"] artifact section
    (schema [emsc-compile-profile/1]): [attributed_ms], per-pass
    [passes] (calls / total_ms / self_ms, keyed by leaf label) and the
    full [stacks] list (the empty stack renders as [""]). *)

val pass_timings : profile -> Json.t
(** [[{"name", "calls", "errors", "total_ms", "counters"?}]] per leaf
    label, sorted by descending total time. *)

(** {2 The timeline view} *)

val pp_tree : Format.formatter -> unit -> unit
(** The recorded spans as an indented tree with durations and
    counters, then the counters bumped outside any span. *)

val chrome_json : unit -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}] with one
    complete ("ph":"X") event per recorded span (pid 1, one tid per
    domain); timestamps and durations in microseconds, args, an
    ["error"] arg for spans closed by exception, and counters merged
    into the event's [args]. *)

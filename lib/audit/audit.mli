(** Cost-model audit: predicted versus measured telemetry.

    The planning layers make quantitative promises — movement volumes
    from {!Emsc_core.Movement.volume_upper_bound} scaled by the Section
    4.3 occurrence factors, buffer footprints from
    {!Emsc_core.Alloc.footprint}, and the first-order counter model the
    {!Emsc_machine.Timing} breakdown consumes.  This module replays a
    compiled kernel on the simulated machine in [Full] fidelity,
    snapshots the {!Emsc_obs.Metrics} registry around the run, and
    reports the relative error of every predicted quantity against what
    the interpreter actually counted.

    Predictions are upper bounds (box volumes, full-tile occurrence
    counts), so drift is expected to be non-negative and bounded by the
    slack of the boxes and the partial boundary tiles; a measured value
    *above* its prediction is a soundness bug in the model.  The
    verdict is therefore asymmetric: under-prediction beyond the
    tolerance fails, over-prediction beyond it (loose boxes, e.g.
    diagonal access patterns) only warns. *)

open Emsc_arith
open Emsc_driver

type quantity = {
  q_name : string;
  q_predicted : float;
  q_measured : float;
  q_rel_err : float;
      (** [(predicted - measured) / max 1 |measured|]: positive =
          over-prediction (expected for upper bounds) *)
}

type group = {
  g_buffer : string;  (** local buffer name *)
  g_array : string;   (** original array the partition belongs to *)
  g_quantities : quantity list;
      (** [move_in_words], [move_out_words], and — for untiled runs,
          where cumulative occupancy equals the single window —
          [footprint_words] *)
  g_unknown : string list;
      (** quantities the model could not bound (unbounded volume,
          occurrence factor unavailable) *)
}

type edge_group = {
  e_edge : string;
      (** hierarchy transfer edge, ["inner<-outer"], innermost first *)
  e_quantities : quantity list;
      (** [move_in_words], [move_out_words] summed over the buffers
          whose placement crosses the edge *)
  e_unknown : string list;
}

type verdict = Pass | Warn | Fail

(** Redundant-vs-irredundant movement for one buffer planned with
    inter-tile reuse: [r_redundant] is the counterfactual
    full-per-block total (every block pays its whole footprint, in and
    out), [r_irredundant] the words the delta-mode run actually moved.
    [r_irredundant > r_redundant] fails the audit — delta movement may
    never exceed what full movement would have cost. *)
type reuse_group = {
  r_buffer : string;
  r_redundant : float;
  r_irredundant : float;
}

type t = {
  a_source : string;
  a_tiled : bool;
  a_tolerance : float;
  a_machine : string;          (** hierarchy the audit ran against *)
  a_groups : group list;       (** one per staged buffer *)
  a_reuse : reuse_group list;
      (** one per buffer planned with inter-tile reuse (empty
          otherwise); part of the verdict *)
  a_placement : Emsc_machine.Placement.t option;
      (** per-level placement of the staged buffers (staging runs) *)
  a_edges : edge_group list;
      (** per-edge movement accounting; reported (and benched) but not
          part of the verdict — the per-buffer groups already gate
          soundness, and an edge total is their weighted combination *)
  a_program : quantity list;   (** [flops], [global_words], [smem_words] *)
  a_timing : quantity list;    (** [t_comp], [t_bw], [t_lat] cycles *)
  a_unknown : string list;     (** program-level quantities not predicted *)
  a_notes : string list;
  a_worst : quantity option;   (** largest absolute relative error *)
  a_verdict : verdict;
      (** [Fail] when any quantity is under-predicted beyond the
          tolerance (the upper-bound model is unsound there) or any
          reuse buffer moved more than the redundant counterfactual;
          [Warn] when over-prediction slack exceeds the tolerance or
          some quantity could not be predicted; [Pass] otherwise *)
  a_metrics : Emsc_obs.Metrics.snapshot;
      (** registry diff over the measured run (movement per buffer,
          occupancy, run totals) *)
}

type outcome =
  | Audited of t
  | Skipped of string  (** compilation stops before planning *)
  | Failed of string   (** compile error, or the measured run died *)

val default_tolerance : float

val auditable : Pipeline.compiled -> bool
(** Does the compilation carry a plan (and, when tiled, a kernel)? *)

val audit_compiled :
  ?tolerance:float ->
  ?double_buffer:bool ->
  ?hierarchy:Emsc_machine.Hierarchy.t ->
  ?param_env:(string -> Zint.t) ->
  Pipeline.compiled ->
  outcome
(** Audit one compilation.  Tiled kernels run through
    {!Emsc_driver.Runner.simulate}; untiled staged plans run the
    move-in / instance-replay / move-out harness (the differential
    oracle's execution model).  [param_env] defaults to
    {!Emsc_driver.Runner.zero_env}.  [double_buffer] makes the
    timing-side scratchpad footprint use the effective (doubled)
    window, via {!Emsc_machine.Timing.plan_smem_bytes}, matching what
    the runtime actually keeps resident.  [hierarchy] (default
    {!Emsc_machine.Hierarchy.gtx8800}) selects the machine: its
    staging level drives the timing quantities and its edge list the
    per-edge movement accounting.  The metrics registry is
    enabled for the duration of the measured run and restored
    afterwards. *)

val audit_job :
  ?cache:Cache.t ->
  ?tolerance:float ->
  ?double_buffer:bool ->
  ?hierarchy:Emsc_machine.Hierarchy.t ->
  ?param_env:(string -> Zint.t) ->
  Pipeline.job ->
  outcome
(** Compile through the pipeline, then {!audit_compiled}. *)

val ok : outcome -> bool
(** [true] unless [Failed] or [Audited] with verdict [Fail]: the exit
    status of [emsc audit]. *)

val verdict_string : verdict -> string

val json : t -> Emsc_obs.Json.t
val outcome_json : name:string -> outcome -> Emsc_obs.Json.t
(** One row of the [emsc audit --json] / bench [audit] artifact:
    [{"source"; "status"; ...report fields when audited}]. *)

val pp : Format.formatter -> t -> unit
val pp_outcome : name:string -> Format.formatter -> outcome -> unit

(** Runtime execution events: per-domain lock-free ring buffers.

    The parallel backend ({!Emsc_runtime}) runs blocks, steals work,
    and pipelines DMA across several domains; this module gives each
    emitting domain its own fixed-capacity ring of timestamped events
    so the run can be reconstructed afterwards — per-domain timelines,
    DMA lanes, arena occupancy — without any synchronization on the
    hot path.

    Discipline, same as {!Prof} and {!Metrics}: disabled by default,
    and every emit first tests one boolean.  Instrumented code must
    guard the event-record construction behind {!enabled} (or a cached
    copy of it), so a disabled run allocates nothing and executes
    bit-identically to an uninstrumented one.

    Concurrency contract: each ring has exactly one writer domain
    (rings for mutex-guarded shared structures, e.g. the arena pool,
    are written only inside that structure's critical section, which
    serializes the writes).  {!drain} must only be called after the
    writers have quiesced — in practice after the worker pool's launch
    barrier or shutdown, both of which establish the needed
    happens-before edges.  Draining is non-destructive; {!reset}
    discards everything. *)

(** what a ring records; determines its Chrome-trace lane *)
type kind =
  | Exec_track   (** a worker domain executing block phases *)
  | Dma_track    (** an asynchronous DMA channel *)
  | Arena_track  (** the scratchpad arena pool (occupancy samples) *)

type phase = Whole | Compute | Move_in | Move_out

type data =
  | Block of { launch : int; block : int; phase : phase }
      (** a block (or one phase of it) executed on a worker domain *)
  | Dma_transfer of {
      launch : int;
      block : int;
      dir : [ `In | `Out ];
      words : float;  (** staged words moved; 0 when not collected *)
    }  (** an asynchronous move phase carried by a DMA channel *)
  | Dma_wait of { launch : int; block : int }
      (** a worker blocked awaiting a DMA ticket *)
  | Steal of { victim : int; ok : bool }
      (** a work-stealing attempt (instant: [t0 = t1] allowed) *)
  | Idle of [ `Work | `Arena ]
      (** a worker waiting — for work or for arena capacity *)
  | Occupancy of { words : int; arenas : int }
      (** arena-pool occupancy after a reserve/release (instant) *)

type event = { t0 : float; t1 : float; data : data }

type ring

type track = {
  t_name : string;
  t_kind : kind;
  dropped : int;     (** events overwritten by wraparound (oldest first) *)
  events : event list;  (** surviving events, oldest first *)
}

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Turn recording on.  [capacity] (default 65536) bounds each ring;
    when a ring wraps, the oldest events are dropped and counted — the
    drop count is reported by {!drain}, never silently swallowed.
    Rings registered before [enable] keep their previous capacity. *)

val disable : unit -> unit
(** Stop recording.  Already-recorded events remain drainable. *)

val reset : unit -> unit
(** Drop every ring and its events. *)

val set_clock : (unit -> float) -> unit
(** Replace the wall clock (seconds).  For deterministic tests. *)

val use_default_clock : unit -> unit

val now : unit -> float
(** Read the clock (only meaningful while instrumenting). *)

val ring : kind:kind -> string -> ring
(** Register (or look up) the named ring.  Registration takes a mutex —
    do it once per run, outside hot loops.  Looking up an existing name
    returns the same ring, so repeated runs in one profiling session
    append to one track. *)

val emit : ring -> t0:float -> ?t1:float -> data -> unit
(** Record one event ([t1] defaults to [now ()]).  Lock-free: a plain
    array store by the ring's single writer.  No-op when disabled. *)

val drain : unit -> track list
(** Snapshot every ring, in registration order.  Non-destructive.
    Call only when writer domains have quiesced (see above). *)

val chrome_events : track list -> Json.t list
(** Chrome [trace_event] objects for the runtime tracks: one thread
    per track under pid 2 ("emsc runtime"), complete ("ph":"X") events
    plus thread/process-name metadata.  Empty input yields []. *)

val merged_chrome_json : unit -> Json.t
(** The compile-path {!Prof} timeline spans (pid 1) and the drained runtime
    tracks (pid 2) in a single [{"traceEvents": ...}] document, so one
    file shows parse → plan → execute on one timeline. *)

val write_merged_chrome : string -> unit
(** Write {!merged_chrome_json} to a file: the one Chrome trace
    writer.  When no runtime events were recorded the file holds
    exactly {!Prof.chrome_json}.  The channel is closed on error too;
    a failed write raises [Sys_error]. *)

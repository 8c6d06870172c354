(** Simulated memory: flat float arrays for the program's global
    arrays, hash-backed sparse storage for scratchpad buffers (their
    live window shifts with the tile origin).  A scratchpad cell is
    keyed by its index tuple stored inline, so reads and writes
    allocate nothing; a buffer's rank is fixed by its first write. *)

open Emsc_arith
open Emsc_ir

type t

val create : Prog.t -> param_env:(string -> Zint.t) -> t
(** Allocates every declared array, zero-initialized. *)

val create_phantom : Prog.t -> param_env:(string -> Zint.t) -> t
(** Shape-only memory: every array is backed by a single cell, reads
    and writes ignore indices.  For sampled timing runs over problem
    sizes whose arrays would not fit in host memory; never use for
    correctness runs. *)

val declare_local : t -> string -> unit
val is_local : t -> string -> bool

val read_global : t -> string -> int array -> float
val write_global : t -> string -> int array -> float -> unit
val read_local : t -> string -> int array -> float
val write_local : t -> string -> int array -> float -> unit

val flat_index : t -> string -> int array -> int
(** Row-major flattened index (for cache simulation addresses). *)

val base_address : t -> string -> int
(** Word address of the array in a virtual address space. *)

(** {2 Resolved arrays}

    The executor resolves each array name once per run to a [buf] and
    then reads and writes through it without name lookups. *)

type buf

val buf : t -> string -> buf
(** The local buffer of that name if one is declared, else the global
    array.  Never fails: an unknown name fails on first access, with
    the error {!read_global} gives. *)

val global_buf : t -> string -> buf
(** The global array of that name, even when a local buffer shares
    it. *)

val buf_is_local : buf -> bool

val buf_load : buf -> int array -> float array -> int -> unit
(** [buf_load b idx dst k] reads the cell at [idx] into [dst.(k)];
    through a float array the value is never boxed. *)

val buf_store : buf -> int array -> float array -> int -> unit
(** [buf_store b idx src k] writes [src.(k)] to the cell at [idx]. *)

val buf_address : buf -> int array -> int
(** [base_address + flat_index] of a global array; fails on a local
    buffer. *)

val global_data : t -> string -> float array
val dims : t -> string -> int array

val fork_view : t -> t
(** A new memory sharing this one's global arrays physically (writes
    through any view are visible to all) but with private local
    buffers, one per name declared in the source view, all empty.  The
    unit of isolation for per-block scratchpad arenas: concurrent
    views may touch disjoint global cells and their own locals without
    interference. *)

val local_names : t -> string list
(** Declared local buffer names, sorted. *)

val clear_locals : t -> unit
(** Drop every cell of every local buffer (declarations survive).
    Lets an arena view be recycled between blocks. *)

val local_words : t -> int
(** Total distinct cells currently held across all local buffers — the
    view's live scratchpad footprint in words. *)

val local_occupancy : t -> (string * int) list
(** Per local buffer, the number of distinct cells ever written, sorted
    by name.  Buffers are sparse and never freed, so this is the
    cumulative footprint of every window the buffer held — an upper
    bound on (and for a single-block run, exactly) its peak scratchpad
    occupancy in words. *)

val fill : t -> string -> (int array -> float) -> unit
(** Initialize an array pointwise. *)

val arrays_equal : ?eps:float -> t -> t -> string -> bool
(** Compare one array's contents across two memories. *)

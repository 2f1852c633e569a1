(** Two-level bitset over [0 .. n-1] — the enabled set of both engines,
    which {!Daemon.select} reads.

    Level 0 packs 32 members per word; level 1 summarizes 32 level-0 words
    per bit, so iterating a sparse set over a million nodes scans ~1000
    summary words instead of ~31000, and an empty region costs one load.

    Beside each level-1 word sits the member count of its aligned
    1024-node block, which {!add}/{!remove} update when they change the
    set.  {!nth} and {!count_range} skip whole blocks by these counts and
    popcount level-0 words only inside the blocks at their ends.

    No total count is stored: {!add}/{!remove} report whether they changed
    the set, and each caller keeps its own — in partitioned runs every
    domain owns an aligned slice (see {!part_align}) and maintains a
    private count.  A block count covers exactly one level-1 word, so it
    is written by one domain only, and the structure itself is written
    race-free. *)

type t

val part_align : int
(** Partition boundaries must be multiples of this (32·32 = 1024): a
    level-1 word and its block count then never span two partitions, and
    concurrent {!add}/{!remove} from different partitions touch disjoint
    words. *)

val create : int -> t
(** All-empty set over [0 .. n-1]. *)

val length : t -> int
val mem : t -> int -> bool

val add : t -> int -> bool
(** [true] iff [u] was not yet a member. *)

val remove : t -> int -> bool
(** [true] iff [u] was a member. *)

val iter : t -> (int -> unit) -> unit
(** Members in increasing order. *)

val iter_range : t -> int -> int -> (int -> unit) -> unit
(** [iter_range t lo hi f]: members in [lo, hi), increasing. *)

val count_range : t -> int -> int -> int
(** Members in [lo, hi): block counts for the whole blocks between,
    popcounts at the two ends — O((hi-lo)/1024 + 64). *)

val nth : t -> int -> int
(** [nth t i] is the [i]-th smallest member (0-indexed): the block counts
    locate its block, at most 32 level-0 popcounts its word —
    O(n/1024 + 32).
    @raise Invalid_argument when [i < 0] or fewer than [i+1] members
    exist. *)

val next_geq : t -> int -> int
(** Smallest member ≥ [u], or [-1]. *)

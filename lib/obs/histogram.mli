(** Log-bucketed (HDR-style) histogram over non-negative integers.

    Built for hot-path measurement: nanosecond timer spans, per-step
    refresh sizes, per-process move counts.  Values up to [2^sub_bits]
    land in exact unit-width buckets; above that, each power-of-two octave
    is split into [2^sub_bits] sub-buckets, so any recorded value is
    represented with relative error at most [2^-sub_bits] (≈ 3% at the
    default [sub_bits = 5]) while the whole 62-bit range fits in a few
    thousand preallocated slots.

    {!record} is a handful of integer shifts plus two array writes — no
    allocation, no branches on the value's magnitude beyond the bucket
    index computation — so it can sit inside the engine's step loop.

    Histograms with the same [sub_bits] {!merge} exactly (bucket-wise
    sum), which makes per-domain recording with a post-join merge safe:
    merge is associative and commutative, and the test suite asserts it. *)

type t

val create : ?sub_bits:int -> unit -> t
(** Fresh empty histogram.  [sub_bits] (default 5) fixes the sub-bucket
    resolution: relative error ≤ [2^-sub_bits].
    @raise Invalid_argument unless [1 <= sub_bits <= 8]. *)

val record : t -> int -> unit
(** Record one value.  Negative values clamp to 0. *)

val record_n : t -> int -> n:int -> unit
(** Record the value [n] times (nothing when [n <= 0]). *)

val count : t -> int
(** Number of recorded values. *)

val sum : t -> int
(** Exact sum of recorded values (not bucket-approximated). *)

val min_value : t -> int
(** Smallest recorded value; 0 when empty. *)

val max_value : t -> int
(** Largest recorded value; 0 when empty. *)

val mean : t -> float
(** Exact mean ([sum/count]); 0 when empty. *)

val percentile : t -> p:float -> float
(** Value at the [p]-th percentile (0 ≤ p ≤ 100): the representative
    (midpoint) of the first bucket whose cumulative count reaches
    [p/100 · count], except that the global minimum and maximum are exact
    at p = 0 and p = 100.  Within one bucket width of the true order
    statistic, i.e. relative error ≤ [2^-sub_bits].  0 when empty.
    @raise Invalid_argument outside [0, 100]. *)

val merge : t -> t -> t
(** Bucket-wise sum into a fresh histogram.  Associative and commutative.
    @raise Invalid_argument when the two histograms disagree on
    [sub_bits]. *)

val merge_into : dst:t -> t -> unit
(** In-place variant of {!merge}: accumulate [t] into [dst]. *)

val to_json : t -> Json.t
(** [{"sub_bits": b, "count": n, "sum": s, "min": lo, "max": hi,
    "buckets": [[index, count], ...]}] — sparse: only nonempty buckets
    appear, in increasing index order. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json} (used by the offline [prof] CLI).  Count, sum
    and min/max are taken from the fields, buckets verbatim. *)

(** Small numeric helpers for summarizing experiment measurements. *)

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  stddev : float;
}

val summarize : float list -> summary
(** Summary of a sample; all fields are 0 for the empty sample.  [stddev] is
    the sample (Bessel-corrected) standard deviation, 0 for fewer than two
    observations. *)

val summarize_ints : int list -> summary

val max_int_list : int list -> int
(** Maximum of a list of ints, 0 for the empty list. *)

val ratio : int -> int -> float
(** [ratio a b] = a/b as floats; 0 when [b = 0]. *)

val percentile : float list -> p:float -> float
(** [percentile xs ~p] with [0 <= p <= 100]: linear interpolation between
    closest ranks (numpy's default estimator); 0 for the empty sample.
    @raise Invalid_argument when [p] is outside [0, 100]. *)

val median : float list -> float
(** [percentile ~p:50.]. *)

(** Reading and validating [ssreset-prof-v1] JSONL profile streams.

    The stream a profiled run ([--prof-out]) writes:

    - one {e manifest} first, with [schema = "ssreset-prof-v1"] and the
      run coordinates (system, family, n, m, seed, daemon, window_steps);
    - zero or more {e window} records with indices strictly increasing
      from 0 and strictly increasing [at_step], each covering
      [window_steps] engine steps (rates, per-rule move deltas, GC word
      deltas);
    - exactly one {e summary} last: totals, per-phase and per-rule timer
      attribution, and the full instrument dump.

    Cross-checks enforced by {!load_string}: the summary's [windows]
    field equals the window-record count; window [steps]/[moves] sums
    never exceed the summary totals; every per-rule window delta sums to
    at most the summary's [moves.R] counter; phase/rule timer sections
    are well-formed with non-negative totals. *)

type window = {
  index : int;
  at_step : int;
  steps : int;
  moves : int;
  wall_s : float;
  steps_per_s : float;
  moves_per_s : float;
  moves_per_rule : (string * int) list;
  gc_minor_words : int;
  gc_major_words : int;
}

type section = {
  ns : int;  (** exact total nanoseconds *)
  count : int;
  mean_ns : float;
  p50_ns : float;
  p90_ns : float;
  max_ns : int;
}

type summary = {
  steps : int;
  moves : int;
  wall_s : float;
  window_count : int;
  phases : (string * section) list;  (** in emission order *)
  rules : (string * section) list;
  counters : (string * int) list;
  gauges : (string * float) list;
}

type t = {
  system : string;
  family : string;
  n : int;
  m : int;
  seed : int;
  daemon : string;
  window_steps : int;
  windows : window list;  (** in file order *)
  summary : summary;
}

val load_string : ?path:string -> string -> (t, string) result
(** Validate and parse a whole JSONL profile.  The error message carries
    the (1-based) offending line. *)

val load_file : string -> (t, string) result
(** {!load_string} of a file; [jsonlint --check-prof] validates with it. *)

val phase_total_ns : t -> int
(** Sum of the [phases] section totals — the attributed engine time, to
    compare against [summary.wall_s]. *)

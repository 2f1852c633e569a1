module Algorithm = Ssreset_sim.Algorithm

type clock = int

let rule_tick = "MU-tick"
let rule_climb = "MU-climb"
let rule_zero = "MU-zero"

module Make (P : sig
  val k : int
  val alpha : int
end) =
struct
  let k = P.k
  let alpha = P.alpha

  let () =
    if k < 4 then invalid_arg "Min_unison.Make: need K >= 4";
    if alpha < 1 then invalid_arg "Min_unison.Make: need alpha >= 1"

  (* Same rule core as the tail baseline: only the period differs (CFG's
     K > n² against the tail baseline's 2n+2).  The pure reset-to-0
     variant is NOT self-stabilizing under the distributed unfair daemon:
     on C4 a clock at 2 and its reset chase each other around the hole
     forever (exhaustively checkable with `ssreset_cli check unison`), so
     the reset must land strictly below the ring. *)
  module T = Tail_unison.Make (P)

  let rename (r : clock Algorithm.rule) =
    { r with
      Algorithm.rule_name =
        (if r.Algorithm.rule_name = Tail_unison.rule_tick then rule_tick
         else if r.Algorithm.rule_name = Tail_unison.rule_climb then rule_climb
         else rule_zero) }

  let algorithm : clock Algorithm.t =
    { T.algorithm with
      Algorithm.name = "min-unison";
      rules = List.map rename T.algorithm.rules }

  let gamma_init = T.gamma_init
  let clock_gen = T.clock_gen
  let p_legitimate = T.p_legitimate
  let is_legitimate = T.is_legitimate
end

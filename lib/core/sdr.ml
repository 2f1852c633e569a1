module Algorithm = Ssreset_sim.Algorithm
module Graph = Ssreset_graph.Graph

type status = C | RB | RF

let pp_status ppf = function
  | C -> Fmt.string ppf "C"
  | RB -> Fmt.string ppf "RB"
  | RF -> Fmt.string ppf "RF"

let status_equal (a : status) b = a = b

let status_to_string = function C -> "C" | RB -> "RB" | RF -> "RF"

type 'inner state = {
  st : status;
  d : int;
  inner : 'inner;
}

module type INPUT = sig
  type state

  val name : string
  val equal : state -> state -> bool
  val pp : state Fmt.t
  val p_icorrect : state Algorithm.view -> bool
  val p_reset : state -> bool
  val reset : state -> state
  val rules : state Algorithm.rule list
end

module type S = sig
  type inner
  type nonrec state = inner state

  val algorithm : state Algorithm.t
  val lift : inner array -> state array
  val inner_config : state array -> inner array

  val generator :
    inner:inner Ssreset_sim.Fault.generator ->
    max_d:int ->
    state Ssreset_sim.Fault.generator

  val p_clean : state Algorithm.view -> bool
  val p_icorrect : state Algorithm.view -> bool
  val p_correct : state Algorithm.view -> bool
  val p_r1 : state Algorithm.view -> bool
  val p_r2 : state Algorithm.view -> bool
  val p_rb : state Algorithm.view -> bool
  val p_rf : state Algorithm.view -> bool
  val p_c : state Algorithm.view -> bool
  val p_up : state Algorithm.view -> bool
  val is_alive_root : state Algorithm.view -> bool
  val is_dead_root : state Algorithm.view -> bool
  val alive_roots : Graph.t -> state array -> int list
  val count_alive_roots : Graph.t -> state array -> int
  val p_normal : state Algorithm.view -> bool
  val is_normal : Graph.t -> state array -> bool

  module Segments : sig
    type t

    val create : Graph.t -> state array -> t

    val observer :
      t -> step:int -> moved:(int * string) list -> state array -> unit

    val count : t -> int
    val alive_count : t -> int
    val alive : t -> int list
    val monotone : t -> bool
  end

  module Waves : sig
    val classify :
      Ssreset_graph.Graph.t ->
      state array ->
      int ->
      string ->
      Ssreset_obs.Span.event option

    val initial_active : state array -> (int * status * int) list

    type tracker

    val create : Ssreset_graph.Graph.t -> state array -> tracker

    val observer :
      tracker -> step:int -> moved:(int * string) list -> state array -> unit

    val span : tracker -> Ssreset_obs.Span.t

    val classify_movers :
      tracker ->
      (int * string) list ->
      (int * string * Ssreset_obs.Span.event option) list
  end
end

module Make (I : INPUT) = struct
  type inner = I.state
  type nonrec state = inner state

  let lift cfg = Array.map (fun inner -> { st = C; d = 0; inner }) cfg
  let inner_config cfg = Array.map (fun s -> s.inner) cfg

  let generator ~inner ~max_d rng u =
    let st =
      match Random.State.int rng 3 with 0 -> C | 1 -> RB | _ -> RF
    in
    { st; d = Random.State.int rng (max_d + 1); inner = inner rng u }

  (* Views of the input algorithm are obtained by stripping the SDR
     variables from the composed view. *)
  let inner_view (v : state Algorithm.view) : I.state Algorithm.view =
    { Algorithm.state = v.Algorithm.state.inner;
      nbrs = Array.map (fun s -> s.inner) v.Algorithm.nbrs }

  let p_icorrect v = I.p_icorrect (inner_view v)
  let p_reset_self (v : state Algorithm.view) = I.p_reset v.Algorithm.state.inner

  let p_correct (v : state Algorithm.view) =
    v.Algorithm.state.st <> C || p_icorrect v

  let p_clean (v : state Algorithm.view) =
    v.Algorithm.state.st = C
    && Array.for_all (fun s -> s.st = C) v.Algorithm.nbrs

  let p_r1 (v : state Algorithm.view) =
    v.Algorithm.state.st = C
    && (not (p_reset_self v))
    && Array.exists (fun s -> s.st = RF) v.Algorithm.nbrs

  let p_rb (v : state Algorithm.view) =
    v.Algorithm.state.st = C
    && Array.exists (fun s -> s.st = RB) v.Algorithm.nbrs

  let p_rf (v : state Algorithm.view) =
    let self = v.Algorithm.state in
    self.st = RB
    && I.p_reset self.inner
    && Array.for_all
         (fun s ->
           (s.st = RB && s.d <= self.d) || (s.st = RF && I.p_reset s.inner))
         v.Algorithm.nbrs

  let p_c (v : state Algorithm.view) =
    let self = v.Algorithm.state in
    let ok s =
      I.p_reset s.inner && ((s.st = RF && s.d >= self.d) || s.st = C)
    in
    self.st = RF && ok self && Array.for_all ok v.Algorithm.nbrs

  let p_r2 (v : state Algorithm.view) =
    v.Algorithm.state.st <> C && not (p_reset_self v)

  let p_up v = (not (p_rb v)) && (p_r1 v || p_r2 v || not (p_correct v))

  (* Macros of Algorithm 1. *)
  let be_root (v : state Algorithm.view) =
    { st = RB; d = 0; inner = I.reset v.Algorithm.state.inner }

  let compute (v : state Algorithm.view) =
    let min_d =
      Array.fold_left
        (fun acc s -> if s.st = RB then min acc s.d else acc)
        max_int v.Algorithm.nbrs
    in
    (* [P_RB] guarantees a neighbor with status RB, so [min_d < max_int]. *)
    { st = RB;
      d = min_d + 1;
      inner = I.reset v.Algorithm.state.inner }

  let rule_rb =
    { Algorithm.rule_name = "SDR-RB"; guard = p_rb; action = compute }

  let rule_rf =
    { Algorithm.rule_name = "SDR-RF";
      guard = p_rf;
      action = (fun v -> { v.Algorithm.state with st = RF }) }

  let rule_c =
    { Algorithm.rule_name = "SDR-C";
      guard = p_c;
      action = (fun v -> { v.Algorithm.state with st = C }) }

  let rule_r =
    { Algorithm.rule_name = "SDR-R"; guard = p_up; action = be_root }

  (* Every rule of I is gated by [P_Clean] (the composition stops the input
     algorithm in the neighborhood of any ongoing reset). *)
  let lift_rule (r : I.state Algorithm.rule) : state Algorithm.rule =
    { Algorithm.rule_name = r.Algorithm.rule_name;
      guard = (fun v -> p_clean v && r.Algorithm.guard (inner_view v));
      action =
        (fun v ->
          { v.Algorithm.state with
            inner = r.Algorithm.action (inner_view v) }) }

  let equal_state a b =
    status_equal a.st b.st && a.d = b.d && I.equal a.inner b.inner

  let pp_state ppf s =
    match s.st with
    | C -> Fmt.pf ppf "C/%a" I.pp s.inner
    | _ -> Fmt.pf ppf "%a@%d/%a" pp_status s.st s.d I.pp s.inner

  let algorithm =
    { Algorithm.name = I.name ^ "∘SDR";
      rules =
        [ rule_rb; rule_rf; rule_c; rule_r ] @ List.map lift_rule I.rules;
      equal = equal_state;
      pp = pp_state }

  (* Roots, Definition 1. *)
  let p_root (v : state Algorithm.view) =
    let self = v.Algorithm.state in
    self.st = RB
    && Array.for_all
         (fun s -> (not (s.st = RB)) || s.d >= self.d)
         v.Algorithm.nbrs

  let is_alive_root v = p_up v || p_root v

  let is_dead_root (v : state Algorithm.view) =
    let self = v.Algorithm.state in
    self.st = RF
    && Array.for_all
         (fun s -> s.st = C || s.d >= self.d)
         v.Algorithm.nbrs

  let alive_roots g cfg =
    let acc = ref [] in
    for u = Graph.n g - 1 downto 0 do
      if is_alive_root (Algorithm.view g cfg u) then acc := u :: !acc
    done;
    !acc

  let count_alive_roots g cfg = List.length (alive_roots g cfg)

  let p_normal v = p_clean v && p_icorrect v
  let is_normal g cfg = Algorithm.for_all_views g cfg ~f:(fun _ v -> p_normal v)

  module Segments = struct
    type t = {
      roots : state Algorithm.Tracker.t;  (* the alive roots *)
      mutable segments : int;
    }

    let create graph cfg =
      { roots = Algorithm.Tracker.create graph is_alive_root cfg; segments = 1 }

    let observer t ~step:_ ~moved cfg =
      let before = Algorithm.Tracker.count t.roots in
      Algorithm.Tracker.update t.roots ~moved cfg;
      if Algorithm.Tracker.count t.roots < before then
        t.segments <- t.segments + 1

    let count t = t.segments
    let alive_count t = Algorithm.Tracker.count t.roots
    let alive t = Algorithm.Tracker.members t.roots

    (* The new set is a subset of the old one iff no process became an
       alive root. *)
    let monotone t = not (Algorithm.Tracker.rose t.roots)
  end

  module Waves = struct
    module Span = Ssreset_obs.Span

    let classify g before u rule =
      match rule with
      | "SDR-R" -> Some Span.Init
      | "SDR-RF" -> Some Span.Feedback
      | "SDR-C" -> Some Span.Complete
      | "SDR-RB" ->
          (* Replay the [compute] macro on the pre-step configuration: the
             parent is the minimum-d RB neighbor; strict [<] over the sorted
             neighbor array keeps the smallest index on ties. *)
          let parent = ref (-1) and min_d = ref max_int in
          Array.iter
            (fun v ->
              let s = before.(v) in
              if s.st = RB && s.d < !min_d then begin
                min_d := s.d;
                parent := v
              end)
            (Graph.neighbors g u);
          if !parent < 0 then None
            (* Unreachable from a real run: P_RB guarantees an RB neighbor. *)
          else Some (Span.Join { parent = !parent; d = !min_d + 1 })
      | _ -> None

    let initial_active cfg =
      let acc = ref [] in
      for u = Array.length cfg - 1 downto 0 do
        if cfg.(u).st <> C then acc := (u, cfg.(u).st, cfg.(u).d) :: !acc
      done;
      !acc

    type tracker = {
      graph : Graph.t;
      cur : state array;  (* the pre-step configuration, kept incrementally *)
      span : Span.t;
    }

    let create graph cfg0 =
      let span = Span.create ~n:(Array.length cfg0) in
      Span.seed_active ~graph span
        (List.map (fun (p, _, d) -> (p, d)) (initial_active cfg0));
      { graph; cur = Array.copy cfg0; span }

    let classify_movers t moved =
      List.map
        (fun (p, rule) -> (p, rule, classify t.graph t.cur p rule))
        moved

    let observer t ~step ~moved after =
      Span.feed_step t.span ~step
        (List.filter_map
           (fun (p, rule) ->
             Option.map
               (fun ev -> (p, ev))
               (classify t.graph t.cur p rule))
           moved);
      (* Only movers changed state: advance the pre-step copy in O(movers)
         rather than O(n). *)
      List.iter (fun (p, _) -> t.cur.(p) <- after.(p)) moved

    let span t = t.span
  end
end

module Csr = Ssreset_graph.Csr

type outcome = Step.outcome = Stabilized | Terminal | Step_limit

let outcome_string = function
  | Stabilized -> "stabilized"
  | Terminal -> "terminal"
  | Step_limit -> "step-limit"

type 'state result = {
  outcome : outcome;
  final : 'state array;
  steps : int;
  moves : int;
  moves_per_process : int array;
  moves_per_rule : (string * int) list;
  rounds : int;
  wall_s : float;
}

let assert_exclusive algorithm v u =
  match Algorithm.exclusive_rules algorithm v with
  | [] | [ _ ] -> ()
  | names ->
      invalid_arg
        (Printf.sprintf "engine: overlapping rules at process %d: %s" u
           (String.concat ", " names))

(* The classic evaluator over the step core: OCaml guards over views of
   [cfg], which the run steps in place — each mover's post is staged into
   [scratch] from the pre-step [cfg] as the daemon pushes it, and only
   committed once the selection is complete.  A rule index is the index of
   the first rule of its name, so the enabled table, flip counts and
   [moves_per_rule] are by name even if two rules share one; firing then
   re-resolves the actual rule.  [check_overlap] checks every guard
   evaluation, so every enabled process of every reached configuration. *)
let core ~prof ~rng ~check_overlap ~algorithm ~graph ~daemon cfg =
  let rules = Array.of_list algorithm.Algorithm.rules in
  let nr = Array.length rules in
  let names = Array.map (fun r -> r.Algorithm.rule_name) rules in
  let canon =
    Array.map
      (fun name ->
        let j = ref 0 in
        while not (String.equal names.(!j) name) do
          incr j
        done;
        !j)
      names
  in
  let shared = Array.exists (fun i -> canon.(i) <> i) (Array.init nr Fun.id) in
  let eval u =
    let v = Algorithm.view graph cfg u in
    if check_overlap then assert_exclusive algorithm v u;
    let r = ref (-1) and i = ref 0 in
    while !r < 0 && !i < nr do
      if rules.(!i).Algorithm.guard v then r := canon.(!i);
      incr i
    done;
    !r
  in
  let scratch = Array.copy cfg in
  let stage _ u r =
    let v = Algorithm.view graph cfg u in
    let rule =
      if shared then Option.get (Algorithm.enabled_rule algorithm v)
      else rules.(r)
    in
    scratch.(u) <- rule.Algorithm.action v
  in
  Step.create ~prof ~daemon ~rng ~csr:(Csr.of_graph graph) ~rules:names ~eval
    ~stage ~commit:(fun _ u -> cfg.(u) <- scratch.(u))

(* Each rng-less call gets a fresh state derived from [seed] (default 0):
   a module-level shared state would make interleaved engine runs depend on
   call order, which is exactly what reproducible traces cannot afford. *)
let step ?rng ?(seed = 0) ?(check_overlap = false) ~algorithm ~graph ~daemon
    ~step_index cfg =
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| seed |]
  in
  let next = Array.copy cfg in
  let t =
    core ~prof:None ~rng ~check_overlap ~algorithm ~graph ~daemon next
  in
  if Step.count t = 0 then None
  else begin
    Step.step t ~index:step_index;
    Some (next, Step.moved t)
  end

let run ?rng ?(seed = 0) ?(max_steps = 10_000_000)
    ?(check_overlap = false) ?prof ?observer ?on_step ?on_round ?stop
    ~algorithm ~graph ~daemon cfg0 =
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| seed |]
  in
  (* The run's one copy of the configuration, stepped in place. *)
  let cfg = Array.copy cfg0 in
  let t = core ~prof ~rng ~check_overlap ~algorithm ~graph ~daemon cfg in
  let after_step =
    match (observer, on_step) with
    | None, None -> None
    | _ ->
        Some
          (fun () ->
            let step = Step.steps t - 1 in
            (match observer with
            | Some f -> f ~step ~moved:(Step.moved t) cfg
            | None -> ());
            match on_step with
            | Some f ->
                f ~step ~enabled:(Step.pre_count t) ~selected:(Step.selected t)
            | None -> ())
  in
  let hooks =
    {
      Step.no_hooks with
      after_step;
      on_round =
        Option.map
          (fun f () ->
            f ~round:(Step.rounds_done t) ~steps:(Step.steps t)
              ~moves:(Step.moves t) cfg)
          on_round;
      stop = Option.map (fun f () -> f cfg) stop;
    }
  in
  let outcome = Step.run t hooks ~max_steps in
  {
    outcome;
    final = cfg;
    steps = Step.steps t;
    moves = Step.moves t;
    moves_per_process = Step.moves_per_process t;
    moves_per_rule = Step.moves_per_rule t;
    rounds = Step.rounds t;
    wall_s = Step.wall_s t;
  }

let moves_of_rules per_rule ~prefixes =
  let matches name =
    List.exists (fun prefix -> String.starts_with ~prefix name) prefixes
  in
  List.fold_left
    (fun acc (name, c) -> if matches name then acc + c else acc)
    0 per_rule

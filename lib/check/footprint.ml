(* Footprint and non-interference analysis (see footprint.mli). *)

module Algorithm = Ssreset_sim.Algorithm
module Graph = Ssreset_graph.Graph
module Sdr = Ssreset_core.Sdr

type 's composition = {
  sdr_rules : string list;
  sdr_fields : string list;
  same_sdr : 's -> 's -> bool;
  same_inner : 's -> 's -> bool;
  reset_inner : 's -> 's;
  landed : 's -> bool;
  p_icorrect : 's Algorithm.view -> bool;
  p_clean : 's Algorithm.view -> bool;
}

module type TARGET = sig
  type state

  val name : string
  val algorithm : state Algorithm.t
  val graph : Graph.t
  val domain : int -> state list
  val fields : (string * (state -> state -> bool)) list
  val composition : state composition option
end

type target = (module TARGET)

let target (type s) ~name ~(algorithm : s Algorithm.t) ~graph ~domain ?fields
    ?composition () : target =
  let fields =
    match fields with
    | Some fs -> fs
    | None -> [ ("state", algorithm.Algorithm.equal) ]
  in
  (module struct
    type state = s

    let name = name
    let algorithm = algorithm
    let graph = graph
    let domain = domain
    let fields = fields
    let composition = composition
  end)

let of_finite (inst : Finite.t) : target =
  let (module F) = inst in
  (module struct
    type state = F.state

    let name = F.name
    let algorithm = F.algorithm
    let graph = F.graph
    let domain = F.domain
    let fields = [ ("state", F.algorithm.Algorithm.equal) ]
    let composition = None
  end)

let sdr_target (type i) (module I : Sdr.INPUT with type state = i) ~name
    ~(algorithm : i Sdr.state Algorithm.t) ~graph ~domain : target =
  let same_inner (a : i Sdr.state) b = I.equal a.Sdr.inner b.Sdr.inner in
  let same_sdr (a : i Sdr.state) (b : i Sdr.state) =
    Sdr.status_equal a.Sdr.st b.Sdr.st && a.Sdr.d = b.Sdr.d
  in
  (module struct
    type state = i Sdr.state

    let name = name
    let algorithm = algorithm
    let graph = graph
    let domain = domain

    let fields =
      [ ("st", fun (a : state) b -> Sdr.status_equal a.Sdr.st b.Sdr.st);
        ("d", fun (a : state) b -> a.Sdr.d = b.Sdr.d);
        ("inner", same_inner) ]

    let composition =
      Some
        { sdr_rules = [ "SDR-RB"; "SDR-RF"; "SDR-C"; "SDR-R" ];
          sdr_fields = [ "st"; "d" ];
          same_sdr;
          same_inner;
          reset_inner = (fun s -> { s with Sdr.inner = I.reset s.Sdr.inner });
          landed = (fun s -> I.p_reset s.Sdr.inner);
          p_icorrect =
            (fun v ->
              I.p_icorrect
                { Algorithm.state = v.Algorithm.state.Sdr.inner;
                  nbrs = Array.map (fun s -> s.Sdr.inner) v.Algorithm.nbrs });
          p_clean =
            (fun v ->
              Sdr.status_equal v.Algorithm.state.Sdr.st Sdr.C
              && Array.for_all
                   (fun s -> Sdr.status_equal s.Sdr.st Sdr.C)
                   v.Algorithm.nbrs) }
  end)

type rule_footprint = {
  rule : string;
  guard_self : string list;
  guard_nbrs : string list;
  action_self : string list;
  action_nbrs : string list;
  writes : string list;
}

type finding = {
  check : string;
  rules : string list;
  witness : string;
  count : int;
}

type t = {
  target_name : string;
  fields : string list;
  composed : bool;
  rules : rule_footprint list;
  findings : finding list;
  views : int;
}

(* Per-vertex, per-field variant table: variants.(u).(fi).(si) lists the
   domain states differing from state [si] in field [fi] and agreeing on
   every other field. *)
let variant_tables (type s) ~n ~doms (fields : (string * (s -> s -> bool)) array)
    =
  let nf = Array.length fields in
  let same fi a b = (snd fields.(fi)) a b in
  Array.init n (fun u ->
      let d : s array = doms.(u) in
      Array.init nf (fun fi ->
          Array.map
            (fun st ->
              let keep s' =
                (not (same fi st s'))
                &&
                let ok = ref true in
                for g = 0 to nf - 1 do
                  if g <> fi && not (same g st s') then ok := false
                done;
                !ok
              in
              let out = ref [] in
              Array.iter (fun s' -> if keep s' then out := s' :: !out) d;
              Array.of_list (List.rev !out))
            d))

(* Classify one probe (replace site [j] of [view] by a state differing
   only in field [fi]) for one rule: did the guard read the field, did the
   action read it, and — when both guards hold — the two outputs.  Own-
   state action reads discount pass-through: an output difference confined
   to field [fi] that is explained by both outputs copying their inputs is
   not a read. *)
let classify (type s) (fields : (string * (s -> s -> bool)) array)
    (r : s Algorithm.rule) view gv (out : s option) view' j fi =
  let nf = Array.length fields in
  let same g a b = (snd fields.(g)) a b in
  let gv' = r.Algorithm.guard view' in
  let guard_read = gv <> gv' in
  if not (gv && gv') then (guard_read, false, None)
  else begin
    let o = match out with Some o -> o | None -> r.Algorithm.action view in
    let o' = r.Algorithm.action view' in
    let diff_other = ref false in
    for g = 0 to nf - 1 do
      if g <> fi && not (same g o o') then diff_other := true
    done;
    let act_read =
      if j > 0 then !diff_other || not (same fi o o')
      else
        !diff_other
        || ((not (same fi o o'))
           && not
                (same fi o view.Algorithm.state
                && same fi o' view'.Algorithm.state))
    in
    (guard_read, act_read, Some (o, o'))
  end

let analyze_target (type s) ~max_views_per_process
    (module T : TARGET with type state = s) =
  let n = Graph.n T.graph in
  let algo = T.algorithm in
  let rules = Array.of_list algo.Algorithm.rules in
  let nr = Array.length rules in
  let fields = Array.of_list T.fields in
  let nf = Array.length fields in
  let same fi a b = (snd fields.(fi)) a b in
  let guard_self = Array.make_matrix nr nf false in
  let guard_nbrs = Array.make_matrix nr nf false in
  let act_self = Array.make_matrix nr nf false in
  let act_nbrs = Array.make_matrix nr nf false in
  let writes = Array.make_matrix nr nf false in
  let pp_view ppf (v : s Algorithm.view) =
    Fmt.pf ppf "@[<h>self=%a nbrs=[%a]@]" algo.Algorithm.pp v.Algorithm.state
      Fmt.(array ~sep:(any " ") algo.Algorithm.pp)
      v.Algorithm.nbrs
  in
  let table : (string * string list, string * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let report check rule_names witness =
    let rule_names = List.sort_uniq compare rule_names in
    match Hashtbl.find_opt table (check, rule_names) with
    | Some (_, count) -> incr count
    | None -> Hashtbl.add table (check, rule_names) (witness, ref 1)
  in
  let comp = T.composition in
  let is_sdr_rule =
    match comp with
    | None -> fun _ -> false
    | Some c -> fun name -> List.mem name c.sdr_rules
  in
  let sdr_field =
    match comp with
    | None -> Array.make nf false
    | Some c -> Array.map (fun (fn, _) -> List.mem fn c.sdr_fields) fields
  in
  let doms = Array.init n (fun u -> Array.of_list (T.domain u)) in
  (* Reset discipline (Requirements 2b and 2e) over the full seed domain. *)
  (match comp with
  | None -> ()
  | Some c ->
      let equal = algo.Algorithm.equal in
      for u = 0 to n - 1 do
        Array.iter
          (fun st ->
            let witness () = Fmt.str "%a" algo.Algorithm.pp st in
            let r1 = c.reset_inner st and r2 = c.reset_inner st in
            if not (equal r1 r2) then report "reset-determinism" [] (witness ())
            else begin
              if not (c.same_inner (c.reset_inner r1) r1) then
                report "reset-idempotent" [] (witness ());
              if not (c.landed r1) then report "reset-escape" [] (witness ())
            end)
          doms.(u)
      done);
  let variants = variant_tables ~n ~doms fields in
  let views = ref 0 in
  for u = 0 to n - 1 do
    let nbrs = Graph.neighbors T.graph u in
    let deg = Array.length nbrs in
    let site_vertex j = if j = 0 then u else nbrs.(j - 1) in
    let dims = Array.init (deg + 1) (fun j -> doms.(site_vertex j)) in
    Algorithm.sample_views ~max:max_views_per_process dims @@ fun digits view ->
      incr views;
      let gv = Array.map (fun r -> r.Algorithm.guard view) rules in
      let out =
        Array.mapi
          (fun ri (r : s Algorithm.rule) ->
            if gv.(ri) then Some (r.Algorithm.action view) else None)
          rules
      in
      (* Writes and whole-view composition checks. *)
      Array.iteri
        (fun ri (r : s Algorithm.rule) ->
          match out.(ri) with
          | None -> ()
          | Some o ->
              for fi = 0 to nf - 1 do
                if not (same fi view.Algorithm.state o) then
                  writes.(ri).(fi) <- true
              done;
              (match comp with
              | None -> ()
              | Some c ->
                  let name = r.Algorithm.rule_name in
                  if is_sdr_rule name then begin
                    if
                      not
                        (c.same_inner view.Algorithm.state o
                        || c.same_inner o (c.reset_inner view.Algorithm.state))
                    then
                      report "sdr-write" [ name ] (Fmt.str "%a" pp_view view)
                  end
                  else begin
                    if not (c.p_clean view) then
                      report "input-gating" [ name ]
                        (Fmt.str "%a" pp_view view);
                    if not (c.same_sdr view.Algorithm.state o) then
                      report "write-escape" [ name ]
                        (Fmt.str "%a" pp_view view)
                  end))
        rules;
      (* Field probes. *)
      for j = 0 to deg do
        let base =
          if j = 0 then view.Algorithm.state else view.Algorithm.nbrs.(j - 1)
        in
        for fi = 0 to nf - 1 do
          Array.iter
            (fun s' ->
              let view' =
                if j = 0 then { view with Algorithm.state = s' }
                else
                  { view with
                    Algorithm.nbrs =
                      (let a = Array.copy view.Algorithm.nbrs in
                       a.(j - 1) <- s';
                       a) }
              in
              (* Probe admissibility for the non-interference checks,
                 shared across rules. *)
              let sdr_probe_ok, input_probe_ok =
                match comp with
                | None -> (false, false)
                | Some c ->
                    ( (not sdr_field.(fi))
                      && c.landed base = c.landed s'
                      && c.p_icorrect view = c.p_icorrect view',
                      sdr_field.(fi) && c.p_clean view && c.p_clean view' )
              in
              Array.iteri
                (fun ri (r : s Algorithm.rule) ->
                  let guard_read, act_read, outs =
                    classify fields r view gv.(ri) out.(ri) view' j fi
                  in
                  if guard_read then
                    (if j = 0 then guard_self else guard_nbrs).(ri).(fi) <-
                      true;
                  if act_read then
                    (if j = 0 then act_self else act_nbrs).(ri).(fi) <- true;
                  match comp with
                  | None -> ()
                  | Some c ->
                      let name = r.Algorithm.rule_name in
                      if is_sdr_rule name then begin
                        if sdr_probe_ok then
                          let bad =
                            guard_read
                            ||
                            match outs with
                            | Some (o, o') -> not (c.same_sdr o o')
                            | None -> false
                          in
                          if bad then
                            report "sdr-read" [ name ]
                              (Fmt.str "%a (probe %s)" pp_view view
                                 (fst fields.(fi)))
                      end
                      else if input_probe_ok then
                        let bad =
                          guard_read
                          ||
                          match outs with
                          | Some (o, o') -> not (c.same_inner o o')
                          | None -> false
                        in
                        if bad then
                          report "read-escape" [ name ]
                            (Fmt.str "%a (probe %s)" pp_view view
                               (fst fields.(fi))))
                rules)
            variants.(site_vertex j).(fi).(digits.(j))
        done
      done
  done;
  let names_of row =
    let out = ref [] in
    for fi = nf - 1 downto 0 do
      if row.(fi) then out := fst fields.(fi) :: !out
    done;
    !out
  in
  let rules_fp =
    Array.to_list
      (Array.mapi
         (fun ri (r : s Algorithm.rule) ->
           { rule = r.Algorithm.rule_name;
             guard_self = names_of guard_self.(ri);
             guard_nbrs = names_of guard_nbrs.(ri);
             action_self = names_of act_self.(ri);
             action_nbrs = names_of act_nbrs.(ri);
             writes = names_of writes.(ri) })
         rules)
  in
  let findings =
    Hashtbl.fold
      (fun (check, rs) (witness, count) acc ->
        { check; rules = rs; witness; count = !count } :: acc)
      table []
    |> List.sort (fun a b -> compare (a.check, a.rules) (b.check, b.rules))
  in
  { target_name = T.name;
    fields = List.map fst T.fields;
    composed = comp <> None;
    rules = rules_fp;
    findings;
    views = !views }

let analyze ?(max_views_per_process = 2_000) (t : target) =
  let (module T) = t in
  analyze_target ~max_views_per_process (module T)

let merge = function
  | [] -> invalid_arg "Footprint.merge: empty list"
  | t0 :: rest ->
      let union a b = List.sort_uniq compare (a @ b) in
      let merge_rule a b =
        { rule = a.rule;
          guard_self = union a.guard_self b.guard_self;
          guard_nbrs = union a.guard_nbrs b.guard_nbrs;
          action_self = union a.action_self b.action_self;
          action_nbrs = union a.action_nbrs b.action_nbrs;
          writes = union a.writes b.writes }
      in
      List.fold_left
        (fun acc t ->
          let rules =
            List.map
              (fun r ->
                match List.find_opt (fun r' -> r'.rule = r.rule) t.rules with
                | Some r' -> merge_rule r r'
                | None -> r)
              acc.rules
          in
          let findings =
            List.fold_left
              (fun fs f ->
                match
                  List.partition
                    (fun f' -> f'.check = f.check && f'.rules = f.rules)
                    fs
                with
                | [ f' ], others ->
                    { f' with count = f'.count + f.count } :: others
                | _ -> f :: fs)
              acc.findings t.findings
            |> List.sort (fun a b ->
                   compare (a.check, a.rules) (b.check, b.rules))
          in
          { acc with
            rules;
            findings;
            views = acc.views + t.views;
            composed = acc.composed || t.composed })
        t0 rest

let differential ?(trials = 500) ~seed (t : target) (report : t) =
  let (module T) = t in
  let n = Graph.n T.graph in
  let algo = T.algorithm in
  let rules = Array.of_list algo.Algorithm.rules in
  let fields = Array.of_list T.fields in
  let nf = Array.length fields in
  let doms = Array.init n (fun u -> Array.of_list (T.domain u)) in
  let variants = variant_tables ~n ~doms fields in
  let rng = Random.State.make [| seed |] in
  let result = ref None in
  let trial () =
    let u = Random.State.int rng n in
    let nbrs = Graph.neighbors T.graph u in
    let deg = Array.length nbrs in
    let site_vertex j = if j = 0 then u else nbrs.(j - 1) in
    let digits =
      Array.init (deg + 1) (fun j ->
          Random.State.int rng (Array.length doms.(site_vertex j)))
    in
    let view =
      { Algorithm.state = doms.(u).(digits.(0));
        nbrs = Array.init deg (fun i -> doms.(nbrs.(i)).(digits.(i + 1))) }
    in
    let ri = Random.State.int rng (Array.length rules) in
    let r = rules.(ri) in
    let j = Random.State.int rng (deg + 1) in
    let fi = Random.State.int rng nf in
    let vars = variants.(site_vertex j).(fi).(digits.(j)) in
    if Array.length vars > 0 then begin
      let s' = vars.(Random.State.int rng (Array.length vars)) in
      let view' =
        if j = 0 then { view with Algorithm.state = s' }
        else
          { view with
            Algorithm.nbrs =
              (let a = Array.copy view.Algorithm.nbrs in
               a.(j - 1) <- s';
               a) }
      in
      let gv = r.Algorithm.guard view in
      let out = if gv then Some (r.Algorithm.action view) else None in
      let guard_read, act_read, _ =
        classify fields r view gv out view' j fi
      in
      let fname = fst fields.(fi) in
      match
        List.find_opt
          (fun fp -> fp.rule = r.Algorithm.rule_name)
          report.rules
      with
      | None ->
          result :=
            Some
              (Printf.sprintf "rule %s missing from the recorded footprint"
                 r.Algorithm.rule_name)
      | Some fp ->
          let recorded reads =
            List.mem fname
              (if j = 0 then fst reads else snd reads)
          in
          if guard_read && not (recorded (fp.guard_self, fp.guard_nbrs)) then
            result :=
              Some
                (Printf.sprintf
                   "rule %s: guard reads %s of %s, not in recorded footprint"
                   r.Algorithm.rule_name fname
                   (if j = 0 then "self" else "a neighbor"))
          else if act_read && not (recorded (fp.action_self, fp.action_nbrs))
          then
            result :=
              Some
                (Printf.sprintf
                   "rule %s: action reads %s of %s, not in recorded footprint"
                   r.Algorithm.rule_name fname
                   (if j = 0 then "self" else "a neighbor"))
    end
  in
  let k = ref 0 in
  while !result = None && !k < trials do
    trial ();
    incr k
  done;
  !result

let pp_finding ppf f =
  Fmt.pf ppf "[%s] %a — %d probe(s), e.g. %s" f.check
    Fmt.(list ~sep:(any ", ") string)
    f.rules f.count f.witness

let pp ppf t =
  Fmt.pf ppf "@[<v>footprint %s (%d views, fields %a)%s" t.target_name t.views
    Fmt.(list ~sep:(any "/") string)
    t.fields
    (if t.composed then ", composed" else "");
  List.iter
    (fun r ->
      Fmt.pf ppf "@,  %s: guard self{%a} nbrs{%a}; action self{%a} nbrs{%a}; \
                  writes{%a}"
        r.rule
        Fmt.(list ~sep:(any ",") string)
        r.guard_self
        Fmt.(list ~sep:(any ",") string)
        r.guard_nbrs
        Fmt.(list ~sep:(any ",") string)
        r.action_self
        Fmt.(list ~sep:(any ",") string)
        r.action_nbrs
        Fmt.(list ~sep:(any ",") string)
        r.writes)
    t.rules;
  List.iter (fun f -> Fmt.pf ppf "@,  %a" pp_finding f) t.findings;
  Fmt.pf ppf "@]"

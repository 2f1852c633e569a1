module Sym = Ssreset_check.Sym
module Csr = Ssreset_graph.Csr
module Registry = Ssreset_check.Registry

type entry = {
  pname : string;
  describe : string;
  spec : Sym.spec;
  params_of_n : int -> (string * int) list;
}

let entries =
  [
    {
      pname = "unison-sdr";
      describe = "composed U\xe2\x88\x98SDR (status/distance/clock)";
      spec = Registry.unison_sdr_composed_spec;
      params_of_n = Registry.unison_sdr_params_of_n;
    };
    {
      pname = "tail-unison";
      describe = "self-contained tail-biased unison";
      spec = Registry.tail_unison_spec;
      params_of_n = Registry.tail_unison_params_of_n;
    };
    {
      pname = "min-unison";
      describe = "self-contained min-repair unison";
      spec = Registry.min_unison_spec;
      params_of_n = Registry.min_unison_params_of_n;
    };
  ]

let find name = List.find_opt (fun e -> String.equal e.pname name) entries

let build e csrg = Flat.compile ~csr:csrg ~params:(e.params_of_n (Csr.n csrg)) e.spec

let init_ground p =
  Array.iter
    (fun (field, _) ->
      for u = 0 to Flat.n p - 1 do
        Flat.set_int p ~field u 0
      done)
    (Flat.fields p)

let scramble_node p ranges ~rng u =
  Array.iter
    (fun (field, kind) ->
      match (kind : Flat.kind) with
      | Flat.KEnum cs ->
          Flat.set_int p ~field u (Random.State.int rng (Array.length cs))
      | Flat.KBool -> Flat.set_int p ~field u (Random.State.int rng 2)
      | Flat.KInt -> (
          match List.assoc_opt field ranges with
          | Some (lo, hi) when hi > lo ->
              Flat.set_int p ~field u (lo + Random.State.full_int rng (hi - lo))
          | Some _ | None -> ()))
    (Flat.fields p)

let field_ranges p =
  let params = Flat.params p in
  List.map
    (fun (f, lo, hi) -> (f, (Sym.eval_int ~params lo, Sym.eval_int ~params hi)))
    (Flat.spec p).Sym.sp_ir.Sym.ranges

let perturb p ~rng k =
  let n = Flat.n p in
  let ranges = field_ranges p in
  let seen = Hashtbl.create (2 * k) in
  let picked = ref 0 in
  while !picked < min k n do
    let u = Random.State.full_int rng n in
    if not (Hashtbl.mem seen u) then begin
      Hashtbl.add seen u ();
      scramble_node p ranges ~rng u;
      incr picked
    end
  done

let init_random p ~rng =
  let ranges = field_ranges p in
  for u = 0 to Flat.n p - 1 do
    scramble_node p ranges ~rng u
  done

(* Every seeded flat run draws its initial configuration from this one
   stream, so a run is reproducible from (system, network, seed, k). *)
let init ?perturb:k p ~seed =
  let rng = Random.State.make [| 0xF1A7; seed |] in
  match k with
  | Some k ->
      init_ground p;
      perturb p ~rng k
  | None -> init_random p ~rng

let digest p (r : Flat.result) =
  Printf.sprintf "outcome=%s steps=%d moves=%d rounds=%d state=%x"
    (Ssreset_sim.Engine.outcome_string r.Flat.outcome)
    r.Flat.steps r.Flat.moves r.Flat.rounds (Flat.checksum p)

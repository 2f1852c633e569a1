module Sdr = Ssreset_core.Sdr

type 's ranking = {
  rank : Sym.rank_spec;
  params : (string * int) list;
  encode : 's -> (string * Sym.value) list;
}

module type FINITE = sig
  type state

  val name : string
  val algorithm : state Ssreset_sim.Algorithm.t
  val graph : Ssreset_graph.Graph.t
  val domain : int -> state list
  val is_legitimate : state array -> bool
  val terminal_ok : state array -> bool
  val certificate : state ranking option
end

type t = (module FINITE)

let make (type s) ~name ~(algorithm : s Ssreset_sim.Algorithm.t) ~graph
    ~domain ~legitimate ?terminal_ok ?certificate () : t =
  let terminal_ok = Option.value ~default:legitimate terminal_ok in
  (module struct
    type state = s

    let name = name
    let algorithm = algorithm
    let graph = graph
    let domain = domain
    let is_legitimate cfg = legitimate graph cfg
    let terminal_ok cfg = terminal_ok graph cfg
    let certificate = certificate
  end)

let sdr_domain ~inner ~max_d u =
  let inner_states = inner u in
  List.concat_map
    (fun st ->
      List.concat_map
        (fun d -> List.map (fun i -> { Sdr.st; d; inner = i }) inner_states)
        (List.init (max_d + 1) Fun.id))
    [ Sdr.C; Sdr.RB; Sdr.RF ]

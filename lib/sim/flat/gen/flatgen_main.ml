(* Print the source of Flat_gen: one straight-line evaluator per spec of
   Registry.flat_specs.  A spec the generator cannot emit fails the build
   with a message naming the spec and the construct. *)

let () =
  match Ssreset_flatgen.Flatgen.emit_module Ssreset_check.Registry.flat_specs with
  | source -> print_string source
  | exception Ssreset_flatgen.Flatgen.Unsupported msg ->
      prerr_endline ("flatgen: " ^ msg);
      exit 1

(* Minimal substring search used by the test suites (avoids a dependency). *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    if i + nn > nh then false
    else if String.equal (String.sub haystack i nn) needle then true
    else at (i + 1)
  in
  nn = 0 || at 0

(* [hay] with the first [needle] replaced by [by]. *)
let replace ~needle ~by hay =
  let nl = String.length needle and hl = String.length hay in
  let rec find i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> invalid_arg "replace: needle not found"
  | Some i ->
      String.sub hay 0 i ^ by ^ String.sub hay (i + nl) (hl - i - nl)

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  stddev : float;
}

let summarize = function
  | [] -> { count = 0; mean = 0.; min = 0.; max = 0.; stddev = 0. }
  | xs ->
      let count = List.length xs in
      let fcount = float_of_int count in
      let total = List.fold_left ( +. ) 0. xs in
      let mean = total /. fcount in
      let mn = List.fold_left min infinity xs in
      let mx = List.fold_left max neg_infinity xs in
      (* Sample (Bessel-corrected) standard deviation; a single observation
         carries no spread information, so stddev is 0 for count < 2. *)
      let stddev =
        if count < 2 then 0.
        else
          sqrt
            (List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
            /. (fcount -. 1.))
      in
      { count; mean; min = mn; max = mx; stddev }

let summarize_ints xs = summarize (List.map float_of_int xs)
let max_int_list = List.fold_left max 0
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let percentile xs ~p =
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: need 0 <= p <= 100";
  match List.sort compare xs with
  | [] -> 0.
  | [ x ] -> x
  | sorted ->
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      (* Linear interpolation between closest ranks (the "type 7" estimator
         used by numpy and R's default). *)
      let rank = p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))

let median xs = percentile xs ~p:50.

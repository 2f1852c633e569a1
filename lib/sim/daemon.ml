type t =
  | Synchronous
  | Central_random
  | Central_first
  | Central_last
  | Round_robin
  | Distributed_random of float
  | Locally_central
  | Adversarial of string list
  | Starve of int

let synchronous = Synchronous
let central_random = Central_random
let central_first = Central_first
let central_last = Central_last
let round_robin = Round_robin

let distributed_random p =
  if p <= 0.0 || p > 1.0 then
    invalid_arg "distributed_random: need 0 < p <= 1";
  Distributed_random p

let locally_central_random = Locally_central
let adversarial_rule ~prefer = Adversarial prefer
let starve victim = Starve victim

let name = function
  | Synchronous -> "synchronous"
  | Central_random -> "central-random"
  | Central_first -> "central-first"
  | Central_last -> "central-last"
  | Round_robin -> "round-robin"
  | Distributed_random p -> Printf.sprintf "distributed-random(p=%.2f)" p
  | Locally_central -> "locally-central-random"
  | Adversarial prefer ->
      Printf.sprintf "adversarial-rule(%s)" (String.concat ">" prefer)
  | Starve victim -> Printf.sprintf "starve(%d)" victim

(* Uniform pick among the enabled processes: one [Random.State.int] draw,
   indexing the ascending order.  [Bits.nth] finds the member through its
   per-block counts, O(n/1024 + 32) per pick. *)
let pick rng enabled count = Bits.nth enabled (Random.State.int rng count)

(* Every case draws from [rng] exactly as the reference list daemons do
   (test/helpers.ml), draw for draw: [Bits.nth] indexes the same ascending
   order the list daemons index into. *)
let select d rng ~cursor ~enabled ~count ~rule_name ~for_all_neighbors push =
  match d with
  | Synchronous -> Bits.iter enabled push
  | Central_random -> push (pick rng enabled count)
  | Central_first -> push (Bits.next_geq enabled 0)
  | Central_last -> push (Bits.nth enabled (count - 1))
  | Round_robin ->
      (* First enabled process at or after the cursor, wrapping. *)
      let u =
        match Bits.next_geq enabled !cursor with
        | -1 -> Bits.next_geq enabled 0
        | u -> u
      in
      cursor := (u + 1) mod Bits.length enabled;
      push u
  | Distributed_random p ->
      let chosen = ref false in
      Bits.iter enabled (fun u ->
          if Random.State.float rng 1.0 < p then begin
            chosen := true;
            push u
          end);
      if not !chosen then push (pick rng enabled count)
  | Locally_central ->
      (* Shuffle, then greedily keep processes with no kept neighbor. *)
      let arr = Array.make count 0 in
      let i = ref 0 in
      Bits.iter enabled (fun u ->
          arr.(!i) <- u;
          incr i);
      for i = count - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      let kept = Bits.create (Bits.length enabled) in
      Array.iter
        (fun u ->
          if for_all_neighbors u (fun v -> not (Bits.mem kept v)) then
            ignore (Bits.add kept u))
        arr;
      Bits.iter kept push
  | Adversarial prefer ->
      (* Uniform among the enabled processes whose rule ranks best. *)
      let rank u =
        let name = rule_name u in
        let rec index i = function
          | [] -> max_int
          | q :: _ when String.equal q name -> i
          | _ :: rest -> index (i + 1) rest
        in
        index 0 prefer
      in
      let best = ref max_int and tied = ref 0 in
      Bits.iter enabled (fun u ->
          let r = rank u in
          if r < !best then begin
            best := r;
            tied := 1
          end
          else if r = !best then incr tied);
      let rec nth_best u k =
        if rank u <> !best then nth_best (Bits.next_geq enabled (u + 1)) k
        else if k = 0 then u
        else nth_best (Bits.next_geq enabled (u + 1)) (k - 1)
      in
      push (nth_best (Bits.next_geq enabled 0) (Random.State.int rng !tied))
  | Starve victim ->
      let starved =
        victim >= 0 && victim < Bits.length enabled && Bits.mem enabled victim
      in
      let others = if starved then count - 1 else count in
      if others = 0 then Bits.iter enabled push
      else
        let k = Random.State.int rng others in
        (* Skip the victim's slot in the ascending order. *)
        let k =
          if starved && k >= Bits.count_range enabled 0 victim then k + 1
          else k
        in
        push (Bits.nth enabled k)

let check_selection enabled chosen =
  if chosen = [] then invalid_arg "daemon selected an empty set";
  List.iter
    (fun u ->
      if not (Bits.mem enabled u) then
        invalid_arg (Printf.sprintf "daemon selected disabled process %d" u))
    chosen

let all_standard =
  [
    synchronous;
    central_first;
    central_last;
    central_random;
    round_robin;
    distributed_random 0.25;
    distributed_random 0.5;
    distributed_random 0.9;
    locally_central_random;
    starve 0;
  ]

let standard_prefer = [ "U-inc"; "FGA-Clr"; "FGA-P1"; "FGA-P2"; "FGA-Q" ]

let registry =
  [
    ("synchronous", synchronous);
    ("central-random", central_random);
    ("central-first", central_first);
    ("central-last", central_last);
    ("round-robin", round_robin);
    ("distributed-random", distributed_random 0.5);
    ("locally-central", locally_central_random);
    ("adversarial", adversarial_rule ~prefer:standard_prefer);
    ("starve", starve 0);
  ]

let names = List.map fst registry
let by_name name = List.assoc_opt name registry

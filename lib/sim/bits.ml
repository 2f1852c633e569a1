(* 32 bits per word: indices stay simple shifts/masks well inside OCaml's
   63-bit ints, and a level-1 word covers 32·32 = 1024 nodes, one block;
   [c1] holds each block's member count. *)

type t = { n : int; l0 : int array; l1 : int array; c1 : int array }

let part_align = 1024
let words n = (n + 31) lsr 5

let create n =
  if n <= 0 then invalid_arg "Bits.create: need n >= 1";
  let nb = words (words n) in
  { n; l0 = Array.make (words n) 0; l1 = Array.make nb 0; c1 = Array.make nb 0 }

let length t = t.n
let mem t u = (t.l0.(u lsr 5) lsr (u land 31)) land 1 = 1

let add t u =
  let w = u lsr 5 in
  let b = 1 lsl (u land 31) in
  let old = t.l0.(w) in
  if old land b <> 0 then false
  else begin
    t.l0.(w) <- old lor b;
    t.l1.(w lsr 5) <- t.l1.(w lsr 5) lor (1 lsl (w land 31));
    t.c1.(w lsr 5) <- t.c1.(w lsr 5) + 1;
    true
  end

let remove t u =
  let w = u lsr 5 in
  let b = 1 lsl (u land 31) in
  let old = t.l0.(w) in
  if old land b = 0 then false
  else begin
    let now = old lxor b in
    t.l0.(w) <- now;
    if now = 0 then
      t.l1.(w lsr 5) <- t.l1.(w lsr 5) land lnot (1 lsl (w land 31));
    t.c1.(w lsr 5) <- t.c1.(w lsr 5) - 1;
    true
  end

(* Count-trailing-zeros of an isolated low bit, via the 32-bit De Bruijn
   sequence 0x077CB531. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz v = debruijn.((((v land -v) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let popcount v =
  let v = v - ((v lsr 1) land 0x55555555) in
  let v = (v land 0x33333333) + ((v lsr 2) land 0x33333333) in
  let v = (v + (v lsr 4)) land 0x0F0F0F0F in
  (v * 0x01010101) lsr 24 land 0xFF

let iter_word t k f =
  let w = ref t.l0.(k) in
  let base = k lsl 5 in
  while !w <> 0 do
    f (base + ctz !w);
    w := !w land (!w - 1)
  done

let iter t f =
  for s = 0 to Array.length t.l1 - 1 do
    let w1 = ref t.l1.(s) in
    let base = s lsl 5 in
    while !w1 <> 0 do
      iter_word t (base + ctz !w1) f;
      w1 := !w1 land (!w1 - 1)
    done
  done

(* Mask of bits [lo land 31 .. hi-1 land 31] inside one word; lo/hi are
   node indices with lo < hi in the same word. *)
let word_mask lo hi =
  let full = 0xFFFFFFFF in
  let m_lo = full lsl (lo land 31) land full in
  let m_hi =
    if hi land 31 = 0 then full else full lsr (32 - (hi land 31))
  in
  m_lo land m_hi

let iter_masked_word t k mask f =
  let w = ref (t.l0.(k) land mask) in
  let base = k lsl 5 in
  while !w <> 0 do
    f (base + ctz !w);
    w := !w land (!w - 1)
  done

let iter_range t lo hi f =
  if lo < hi then begin
    let wlo = lo lsr 5 and whi = (hi - 1) lsr 5 in
    if wlo = whi then iter_masked_word t wlo (word_mask lo hi) f
    else begin
      if lo land 31 = 0 then iter_word t wlo f
      else iter_masked_word t wlo (word_mask lo ((wlo + 1) lsl 5)) f;
      (* Whole words in between, skipping empty runs via level 1. *)
      for s = (wlo + 1) lsr 5 to whi lsr 5 do
        if t.l1.(s) <> 0 then begin
          let from = max (wlo + 1) (s lsl 5) in
          let upto = min (whi - 1) ((s lsl 5) + 31) in
          for k = from to upto do
            if t.l0.(k) <> 0 then iter_word t k f
          done
        end
      done;
      if hi land 31 = 0 then iter_word t whi f
      else iter_masked_word t whi (word_mask (whi lsl 5) hi) f
    end
  end

(* Members of [u]'s block that lie below [u]: the nonempty level-0 words
   before [u]'s word, found through the level-1 bits, plus the low bits of
   [u]'s own word.  [u = n] is allowed. *)
let below_in_block t u =
  let w = u lsr 5 in
  let c = ref 0 in
  if w land 31 <> 0 then begin
    let w1 = ref (t.l1.(w lsr 5) land ((1 lsl (w land 31)) - 1)) in
    let base = w land lnot 31 in
    while !w1 <> 0 do
      c := !c + popcount t.l0.(base + ctz !w1);
      w1 := !w1 land (!w1 - 1)
    done
  end;
  if u land 31 <> 0 then
    c := !c + popcount (t.l0.(w) land ((1 lsl (u land 31)) - 1));
  !c

let count_range t lo hi =
  if lo >= hi then 0
  else begin
    let c = ref (below_in_block t hi - below_in_block t lo) in
    for s = lo lsr 10 to (hi lsr 10) - 1 do
      c := !c + t.c1.(s)
    done;
    !c
  end

(* Position of the [i]-th set bit of word [w] (0-indexed, [i] below its
   popcount). *)
let rec nth_in_word w i =
  if i = 0 then ctz w else nth_in_word (w land (w - 1)) (i - 1)

(* The [i]-th member of the block whose level-1 word is [w1] and whose
   first level-0 word is [base]; the block holds more than [i] members.
   Skip whole nonempty words by their popcount. *)
let rec nth_in_block t w1 base i =
  if w1 = 0 then invalid_arg "Bits.nth: block count out of step";
  let k = base + ctz w1 in
  let p = popcount t.l0.(k) in
  if i < p then (k lsl 5) + nth_in_word t.l0.(k) i
  else nth_in_block t (w1 land (w1 - 1)) base (i - p)

let nth t i =
  if i < 0 then invalid_arg "Bits.nth";
  let nb = Array.length t.c1 in
  let s = ref 0 and i = ref i in
  while !s < nb && !i >= t.c1.(!s) do
    i := !i - t.c1.(!s);
    incr s
  done;
  if !s = nb then invalid_arg "Bits.nth: not enough members";
  nth_in_block t t.l1.(!s) (!s lsl 5) !i

let next_geq t u =
  if u >= t.n then -1
  else begin
    let k = u lsr 5 in
    let first = t.l0.(k) land (0xFFFFFFFF lsl (u land 31)) land 0xFFFFFFFF in
    if first <> 0 then (k lsl 5) + ctz first
    else begin
      let result = ref (-1) in
      (try
         for s = k lsr 5 to Array.length t.l1 - 1 do
           let mask =
             if s = k lsr 5 then
               t.l1.(s) land (0xFFFFFFFF lsl ((k land 31) + 1)) land 0xFFFFFFFF
             else t.l1.(s)
           in
           let w1 = ref mask in
           if !w1 <> 0 then begin
             let kk = (s lsl 5) + ctz !w1 in
             result := (kk lsl 5) + ctz t.l0.(kk);
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end
  end

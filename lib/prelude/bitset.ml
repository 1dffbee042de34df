(* 32 ids per word, so that isolating a word's lowest bit and
   multiplying it by the de Bruijn constant below stays inside OCaml's
   63-bit ints. *)
type t = {
  size : int;
  words : int array;
  mutable low : int;  (* no bit lives in a word below this one *)
}

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative size";
  { size = n; words = Array.make ((n + 31) lsr 5) 0; low = 0 }

let add t i =
  if i < 0 || i >= t.size then invalid_arg "Bitset.add: id out of range";
  let w = i lsr 5 in
  t.words.(w) <- t.words.(w) lor (1 lsl (i land 31));
  if w < t.low then t.low <- w

(* bit position of [b], a power of two below 2^32: the top five bits of
   [b * 0x077CB531] (mod 2^32) are distinct for each position *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let pop_min t =
  let words = t.words in
  let n = Array.length words in
  let w = ref t.low in
  while !w < n && words.(!w) = 0 do
    incr w
  done;
  t.low <- !w;
  if !w = n then -1
  else begin
    let word = words.(!w) in
    let bit = word land -word in
    words.(!w) <- word lxor bit;
    (!w lsl 5) lor debruijn.(((bit * 0x077CB531) land 0xFFFFFFFF) lsr 27)
  end

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.low <- 0

type t = { mutable bits : Bytes.t }

let create n = { bits = Bytes.make (max 1 ((n + 7) lsr 3)) '\000' }

let mem t i =
  i >= 0
  && i lsr 3 < Bytes.length t.bits
  && Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7))
     <> 0

let add t i =
  if i < 0 then invalid_arg "Bitset.add: negative element";
  let byte = i lsr 3 in
  let len = Bytes.length t.bits in
  if byte >= len then begin
    (* Double, so a counter-driven run grows the set O(log n) times. *)
    let grown = Bytes.make (max (2 * len) (byte + 1)) '\000' in
    Bytes.blit t.bits 0 grown 0 len;
    t.bits <- grown
  end;
  let c = Char.code (Bytes.get t.bits byte) in
  Bytes.set t.bits byte (Char.unsafe_chr (c lor (1 lsl (i land 7))))

module Int = Hashtbl.Make (struct
  type t = int

  let equal = Stdlib.Int.equal
  let hash = Hashtbl.hash
end)

module Pair = Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : t) ((c, d) : t) =
    Stdlib.Int.equal a c && Stdlib.Int.equal b d
  let hash = Hashtbl.hash
end)

module String = Hashtbl.Make (struct
  type t = string

  let equal = Stdlib.String.equal
  let hash = Hashtbl.hash
end)

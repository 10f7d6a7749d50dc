type id = { origin : int; seq : int }
type outcome = Committed | Aborted of string
type t = { id : id; plan : Mds.Plan.t }

let id_equal (a : id) (b : id) = a.origin = b.origin && a.seq = b.seq

let id_compare (a : id) (b : id) =
  match Int.compare a.origin b.origin with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let key { origin; seq } = (origin, seq)

let owner_token { origin; seq } =
  if origin >= 1 lsl 20 || seq >= 1 lsl 42 then
    invalid_arg "Txn.owner_token: id out of encodable range";
  (origin lsl 42) lor seq

let pp_id ppf { origin; seq } = Fmt.pf ppf "t%d.%d" origin seq

let pp_outcome ppf = function
  | Committed -> Fmt.string ppf "committed"
  | Aborted reason -> Fmt.pf ppf "aborted (%s)" reason

let is_committed = function Committed -> true | Aborted _ -> false

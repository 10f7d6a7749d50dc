type kind = Kind.t = Prn | Prc | Ep | Opc | Lp1

let all = Kind.all
let name = Kind.name
let of_name = Kind.of_name
let pp = Kind.pp
let max_workers = Kind.max_workers

type instance = Common.instance = {
  kind : kind;
  submit : Txn.t -> unit;
  on_message : src:Netsim.Address.t -> Wire.t -> unit;
  recover : on_done:(unit -> unit) -> unit;
  on_suspect : Netsim.Address.t -> unit;
  outstanding : unit -> int;
  owns : Txn.id -> bool;
}

let instantiate kind ctx =
  match kind with
  | Prn | Prc | Ep -> Two_phase.instantiate kind ctx
  | Opc -> One_phase.instantiate ctx
  | Lp1 -> Logless.instantiate ctx

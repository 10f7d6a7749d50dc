(** Protocol registry.

    A uniform closure-record interface over the five commitment
    protocols, so the cluster layer can hold "whatever protocol this
    server runs" without a functor. A fresh instance per server boot:
    crashing a node is modelled by dropping its instance (all volatile
    protocol state lives inside) and creating + recovering a new one. *)

type kind = Kind.t = Prn | Prc | Ep | Opc | Lp1
(** Re-export of {!Kind.t} — the leaf module breaks the dependency cycle
    between this registry and the data-only {!Edges} declarations. *)

val all : kind list
(** In the paper's presentation order — PrN, PrC, EP, 1PC — with the
    logless extension L1PC last. *)

val name : kind -> string
(** ["PrN"], ["PrC"], ["EP"], ["1PC"], ["L1PC"]. *)

val of_name : string -> kind option
(** Case-insensitive; also accepts ["2pc"] for PrN, ["opc"] for 1PC,
    and ["lp1"] for L1PC. *)

val pp : Format.formatter -> kind -> unit

val max_workers : kind -> int option
(** [Some 1] for 1PC and L1PC (two-server transactions only); [None] =
    unlimited for the 2PC family. *)

type instance = Common.instance = {
  kind : kind;
  submit : Txn.t -> unit;
  on_message : src:Netsim.Address.t -> Wire.t -> unit;
  recover : on_done:(unit -> unit) -> unit;
  on_suspect : Netsim.Address.t -> unit;
  outstanding : unit -> int;
  owns : Txn.id -> bool;
}
(** Re-export of {!Common.instance}, where each field is documented. *)

val instantiate : kind -> Context.t -> instance
(** The engine that runs [kind]: {!Two_phase}, {!One_phase} or
    {!Logless}, each building its own instance. *)

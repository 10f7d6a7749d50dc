(** Cluster network payload: protocol traffic plus heartbeats. *)

type t =
  | Acp of Acp.Wire.t
  | Heartbeat

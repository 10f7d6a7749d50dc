type t = Acp of Acp.Wire.t | Heartbeat

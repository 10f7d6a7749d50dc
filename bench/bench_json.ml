(* Kept only because benchmark/ names this library and its two modules;
   that directory changes only with the benchmark itself. Everything
   else uses Obs.Json directly. *)
module Json = Obs.Json
module Json_in = Obs.Json

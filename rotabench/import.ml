(* Short aliases for the libraries the benchmark drives from outside. *)
module Computation = Rota_actor.Computation
module Certificate = Rota.Certificate
module Admission = Rota_scheduler.Admission
module Resource_set = Rota_resource.Resource_set
module Trace = Rota_sim.Trace
module Engine = Rota_sim.Engine
module Scenario = Rota_workload.Scenario
module Json = Rota_obs.Json
module Events = Rota_obs.Events
module Tracer = Rota_obs.Tracer
module Sink = Rota_obs.Sink
module Live = Rota_audit.Live
module Watchdog = Rota_audit.Watchdog
module Audit = Rota_audit.Audit
module Wire = Rota_server.Wire
module Wal = Rota_server.Wal
module Replica = Rota_server.Replica

(* Every duration the benchmark reports comes from this clock
   (CLOCK_MONOTONIC through bechamel's stub), never from wall-clock
   differences. *)
let now_ns () = Monotonic_clock.now ()
let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Progress of the steps around the measured window, on stderr. *)
let step_t0 = now_ns ()
let step name = Printf.eprintf "rotabench: %7.2f s  %s\n%!" (since_s step_t0) name

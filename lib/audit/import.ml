(* Short aliases for the substrate libraries used throughout this library. *)
module Time = Rota_interval.Time
module Interval = Rota_interval.Interval
module Located_type = Rota_resource.Located_type
module Resource_set = Rota_resource.Resource_set
module Certificate = Rota.Certificate
module Json = Rota_obs.Json
module Events = Rota_obs.Events
module Trace_reader = Rota_obs.Trace_reader
module Summary = Rota_obs.Summary
module Sink = Rota_obs.Sink
module Tracer = Rota_obs.Tracer
module Metrics = Rota_obs.Metrics
module Clock = Rota_obs.Clock

(** Event tracing and latency histograms for the simulated stack.

    [Trace] is the tracer itself (see {!Tracer}), a subscriber of the
    engine's {!Sim.Probe} bus; submodules hold the building blocks:
    retained {!Event}s and the edge-to-kind map, bounded per-CPU {!Ring}
    buffers, log-bucketed {!Hist} latency histograms and the {!Chrome}
    trace-event exporter. *)

module Event = Event
module Ring = Ring
module Hist = Hist
module Chrome = Chrome
include Tracer

(* The host: a nanosecond monotonic clock, and CPU pinning.  Cycle k
   runs on the k-th allowed CPU, cyclically: a host neighbour that
   slows one CPU for a while then slows only some of a transaction's
   replays, and its best-of-cycles time escapes it. *)

external allowed_cpus : unit -> int array = "bench_allowed_cpus"
external pin_cpu : int -> bool = "bench_pin_cpu" [@@noalloc]
external now_ns : unit -> int = "bench_now_ns" [@@noalloc]

(* Monotonic seconds. *)
let now () = float_of_int (now_ns ()) *. 1e-9

let cpus = lazy (allowed_cpus ())

(* Pin the calling thread (and any process it then spawns) to the CPU
   for cycle [k]; a no-op on a single CPU or if the kernel refuses. *)
let pin k =
  let cpus = Lazy.force cpus in
  let n = Array.length cpus in
  if n > 1 then ignore (pin_cpu cpus.(k mod n))

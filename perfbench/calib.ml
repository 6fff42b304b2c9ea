(* Host-speed calibration.

   On a shared host the same work runs up to twice as slow for stretches
   of seconds to minutes, while other tenants load the machine. A fixed
   kernel timed between the measured iterations slows down with them, so
   the ratio of an iteration's time to the kernel's time next to it is
   much steadier than either. End-to-end times are reported as that ratio
   times [reference_s], the kernel's time on the reference host: seconds
   as that host would have measured them, had it been quiet.

   The kernel does what the toolchain spends its time on: it allocates
   small blocks, grows and walks a hash table, and sorts a float array,
   so the major GC runs during it. It calls only the standard library.
   It is measured between two collections, so the workload's garbage
   does not land in the kernel, nor the kernel's in the workload; a
   change to the toolchain reaches it only through the seeded inputs
   that stay alive across it, which its major GC marks. *)

(* Median kernel time on the reference host (2-vCPU Intel Xeon). *)
let reference_s = 0.030

let kernel () =
  let h = Hashtbl.create 16 in
  for i = 0 to 59_999 do
    Hashtbl.replace h ((i * 7919) land 0xfffff) [ float_of_int i ]
  done;
  let acc = ref 0. in
  Hashtbl.iter (fun _ l -> acc := !acc +. List.hd l) h;
  let a = Array.init 60_000 (fun i -> float_of_int ((i * 104729) land 0xffff)) in
  Array.sort Float.compare a;
  ignore (Sys.opaque_identity (!acc +. a.(0)))

(* One timed run of the kernel, in seconds, between two collections. *)
let measure () =
  Gc.compact ();
  let t0 = Trace.now () in
  kernel ();
  let dt = Trace.now () -. t0 in
  Gc.compact ();
  dt

(* [t] seconds measured between kernel times [c0] and [c1], in
   reference-host seconds. *)
let scale t c0 c1 = t *. reference_s /. ((c0 +. c1) /. 2.)

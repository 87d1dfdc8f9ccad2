(* Machine-speed calibration.

   The benchmark runs on shared virtual machines whose cores change speed
   by up to ~1.8x from second to second, and whose mix of fast and slow
   periods drifts from minute to minute. A wall time alone then measures
   the host as much as the program. So between the units of every pass
   the benchmark also times a fixed reference kernel, written here and
   independent of the library, and reports its times scaled to a
   reference speed: the speed at which one calibration sample takes
   [reference_s].

   The kernel is a sparse matrix-vector product with scattered column
   indices over a 512 KiB vector: indirect loads and floating-point
   adds, the mix of the sparse LU, the simplex and Gauss-Seidel. It
   allocates nothing, so no collection falls inside a sample. In 30 s
   windows of back-to-back passes on a 2-vCPU machine, scaling by it cut
   the spread of fig4-sweep's times from 0.24 to 0.04 and tpcw-fig3's
   from 0.22 to 0.08; kernels of dense LU or of allocation tracked the
   library's speed less well (README.md). *)

let reference_s = 8e-3
let len = 1 lsl 16
let nnz = 150_000
let cols = Array.init nnz (fun i -> (i * 40_503) land (len - 1))
let vals = Array.init nnz (fun i -> 1. /. float_of_int (i + 1))
let x = Array.init len (fun i -> float_of_int (i land 255))
let sink = ref 0.

let spmv () =
  let s = ref 0. in
  for i = 0 to nnz - 1 do
    s := !s +. (vals.(i) *. x.(cols.(i)))
  done;
  sink := !sink +. !s

(* One sample: the wall time of [products] products, 5 to 15 ms. The
   host stops a vCPU now and then for up to ~10 ms; samples this long
   average such stops rather than swing on each one. *)
let products = 16

let sample () =
  let t0 = Mapqn_obs.Span.now () in
  for _ = 1 to products do
    spmv ()
  done;
  Mapqn_obs.Span.now () -. t0

(* Calibration work as exact counts: deltas of [Tables.counters]. *)

type t = { benches : int; gmem_points : int; disk_loads : int }

let read () =
  let c = Gpu_microbench.Tables.counters () in
  {
    benches = c.Gpu_microbench.Tables.instr_smem_measurements;
    gmem_points = c.Gpu_microbench.Tables.gmem_measurements;
    disk_loads = c.Gpu_microbench.Tables.cache_loads;
  }

let delta a b =
  {
    benches = b.benches - a.benches;
    gmem_points = b.gmem_points - a.gmem_points;
    disk_loads = b.disk_loads - a.disk_loads;
  }

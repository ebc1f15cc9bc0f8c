(* A suite's private calibration cache.  [use name] points
   GPUPERF_CACHE_DIR at a per-process directory under the temporary
   directory, before anything calibrates: tables an earlier build wrote to
   the user's cache would otherwise stand in for this build's
   measurements, and this build's would land there.  The directory is not
   created here, so the suite's first save goes through the cache's own
   first-run path that makes it.  Whatever the suite wrote there (tables,
   ledgers) is removed when the suite exits; if nothing did, there is
   nothing to remove. *)

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter
      (fun entry -> remove_tree (Filename.concat path entry))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let use name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gpuperf-%s-test-cache-%d" name (Unix.getpid ()))
  in
  Unix.putenv "GPUPERF_CACHE_DIR" dir;
  at_exit (fun () ->
      try remove_tree dir with Unix.Unix_error _ | Sys_error _ -> ());
  dir

let write file data =
  match
    let tmp, oc =
      Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
        ~temp_dir:(Filename.dirname file) (Filename.basename file) ".tmp"
    in
    (* [close_out] flushes, so a short write surfaces here rather than
       being swallowed by a [close_out_noerr] and renamed into place. *)
    match
      output_string oc data;
      close_out oc;
      Sys.rename tmp file
    with
    | () -> ()
    | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

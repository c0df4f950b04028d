let connect u ~server =
  let req_r, req_w = Uapi.pipe u in
  let resp_r, resp_w = Uapi.pipe u in
  ignore
    (Uapi.fork u ~child:(fun env ->
         let su = Uapi.of_env env in
         Uapi.close su req_w;
         Uapi.close su resp_r;
         server ~request_fd:req_r ~response_fd:resp_w env));
  Uapi.close u req_r;
  Uapi.close u resp_w;
  (req_w, resp_r)

let run u ~cloak_server ~server ~client =
  let request_fd, response_fd =
    connect u ~server:(fun ~request_fd ~response_fd env ->
        (if cloak_server then Uapi.exec_cloaked else Uapi.exec)
          (Uapi.of_env env) (server ~request_fd ~response_fd))
  in
  client ~request_fd ~response_fd (Uapi.env u)

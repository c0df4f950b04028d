(* The benchmark's command line. See benchmark/README.md.

     run.exe [--workload kv|swap|vault|migrate] [--seed N] [--seconds S]
             [--trace [0|1]] [--micro] [--out FILE]
     run.exe --compare A.jsonl B.jsonl

   Run from the repository root. Prints every metric as "workload metric
   value unit", then one JSON object as the last line of stdout; exits 1
   if any op failed, 2 on a bad argument. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: run.exe [--workload kv|swap|vault|migrate] [--seed N] [--seconds S] \
     [--trace [0|1]] [--micro] [--out FILE]\n\
    \       run.exe --compare A.jsonl B.jsonl";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. in
  let trace = ref false and micro = ref false and out = ref None in
  let compare = ref None in
  let number conv s = match conv s with Some v -> v | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match List.find_opt (fun (x : Suite.workload) -> x.name = w) Suite.workloads with
        | Some x -> workload := Some x
        | None -> usage ());
        parse rest
    | "--seed" :: n :: rest ->
        seed := number int_of_string_opt n;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := number float_of_string_opt s;
        if !seconds <= 0. then usage ();
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        parse rest
    | "--trace" :: rest ->
        trace := true;
        parse rest
    | "--micro" :: rest ->
        micro := true;
        parse rest
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | "--compare" :: a :: b :: rest ->
        compare := Some (a, b);
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !compare with
  | Some (a, b) -> exit (Compare.run ~a ~b)
  | None ->
      let selected = match !workload with Some w -> [ w ] | None -> Suite.workloads in
      exit
        (Suite.run ~selected ~seed:!seed ~seconds:!seconds ~trace:!trace ~micro_only:!micro
           ~out:!out)

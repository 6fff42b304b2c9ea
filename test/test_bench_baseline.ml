(* The committed BENCH_scale.json must be a baseline `bench scale --check`
   can use: measured in calibrated seconds, with a median total over at
   least three runs, and its spread, for every row the quick run
   measures. *)

module J = Perfbench.Json

let baseline =
  lazy (J.parse (In_channel.with_open_bin "../BENCH_scale.json" In_channel.input_all))

let test_time_basis () =
  Alcotest.(check string)
    "time_basis" "calibrated"
    (J.to_str (J.member "time_basis" (Lazy.force baseline)))

let quick_rows =
  List.concat_map
    (fun n -> [ ("ring", n); ("allpairs", n); ("hier", n) ])
    [ 64; 256 ]
  @ [ ("ring", 4096) ]

let test_quick_rows () =
  let points = J.to_list (J.member "points" (Lazy.force baseline)) in
  List.iter
    (fun (algo, ranks) ->
      let row =
        List.find_opt
          (fun p ->
            J.member "algo" p = J.Str algo
            && J.member "ranks" p = J.Num (float_of_int ranks))
          points
      in
      match row with
      | None -> Alcotest.failf "no %s@%d row" algo ranks
      | Some p -> (
          (match J.member "total_s" p with
          | J.Num t when Float.is_finite t && t >= 0. -> ()
          | _ -> Alcotest.failf "%s@%d: total_s is not a number" algo ranks);
          (match J.member "runs" p with
          | J.Num r when r >= 3. -> ()
          | _ -> Alcotest.failf "%s@%d: fewer than 3 runs" algo ranks);
          match J.member "total_s" (J.member "spread" p) with
          | J.Num x when Float.is_finite x && x >= 0. -> ()
          | _ -> Alcotest.failf "%s@%d: no total_s spread" algo ranks))
    quick_rows

let () =
  Alcotest.run "bench-baseline"
    [
      ( "BENCH_scale.json",
        [
          Alcotest.test_case "calibrated time basis" `Quick test_time_basis;
          Alcotest.test_case "a total for every quick row" `Quick
            test_quick_rows;
        ] );
    ]

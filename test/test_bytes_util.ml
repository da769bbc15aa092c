open Memguard_util

let b_of s = Bytes.of_string s

let test_find_all_basic () =
  let offs = Bytes_util.find_all ~needle:"abc" (b_of "abcabcabc") in
  Alcotest.(check (list int)) "three hits" [ 0; 3; 6 ] offs

let test_find_all_overlap () =
  let offs = Bytes_util.find_all ~needle:"aa" (b_of "aaaa") in
  Alcotest.(check (list int)) "overlapping hits" [ 0; 1; 2 ] offs

let test_find_all_none () =
  let offs = Bytes_util.find_all ~needle:"xyz" (b_of "hello") in
  Alcotest.(check (list int)) "no hits" [] offs

let test_find_all_range () =
  let offs = Bytes_util.find_all ~from:1 ~until:8 ~needle:"abc" (b_of "abcabcabc") in
  Alcotest.(check (list int)) "restricted range" [ 3 ] offs

let test_find_all_at_end () =
  let offs = Bytes_util.find_all ~needle:"key" (b_of "xxkey") in
  Alcotest.(check (list int)) "hit at end" [ 2 ] offs

let test_find_all_needle_too_long () =
  let offs = Bytes_util.find_all ~needle:"abc" (b_of "ab") in
  Alcotest.(check (list int)) "needle longer than haystack" [] offs

let test_find_first () =
  Alcotest.(check (option int))
    "first" (Some 2)
    (Bytes_util.find_first ~needle:"abc" (b_of "xxabcabc"));
  Alcotest.(check (option int))
    "none" None
    (Bytes_util.find_first ~needle:"abc" (b_of "xxx"))

let test_count () =
  Alcotest.(check int) "count" 3 (Bytes_util.count ~needle:"abc" (b_of "abcabcabc"))

let test_zeroize () =
  let b = b_of "secretsecret" in
  Bytes.fill b 3 6 '\000';
  Alcotest.(check bool) "is_zero true" true (Bytes_util.is_zero b ~pos:3 ~len:6);
  Alcotest.(check bool) "is_zero false" false (Bytes_util.is_zero b ~pos:0 ~len:4)

let test_hex_roundtrip () =
  let s = "\x00\x01\xfe\xff hello" in
  Alcotest.(check string) "roundtrip" s (Bytes_util.string_of_hex (Bytes_util.hex_of_string s))

let test_hex_known () =
  Alcotest.(check string) "known encoding" "00ff10" (Bytes_util.hex_of_string "\x00\xff\x10")

let test_hex_bad () =
  Alcotest.check_raises "odd length" (Invalid_argument "Bytes_util.string_of_hex: odd length")
    (fun () -> ignore (Bytes_util.string_of_hex "abc"))

let test_human_size () =
  Alcotest.(check string) "bytes" "512B" (Bytes_util.human_size 512);
  Alcotest.(check string) "kib" "4.0KiB" (Bytes_util.human_size 4096);
  Alcotest.(check string) "mib" "2.0MiB" (Bytes_util.human_size (2 * 1024 * 1024))

(* property: find_all agrees with a reference implementation *)
let prop_find_all_matches_reference =
  QCheck.Test.make ~name:"find_all matches naive reference" ~count:800
    QCheck.(pair (string_of_size (Gen.int_range 0 200)) (string_of_size (Gen.int_range 1 24)))
    (fun (hay, needle) ->
      QCheck.assume (String.length needle > 0);
      let haystack = Bytes.of_string hay in
      let reference =
        let acc = ref [] in
        let n = String.length needle and h = String.length hay in
        for i = h - n downto 0 do
          if String.sub hay i n = needle then acc := i :: !acc
        done;
        !acc
      in
      Bytes_util.find_all ~needle haystack = reference)

(* low-entropy alphabet so long needles actually occur (and overlap) *)
let prop_find_all_low_entropy =
  QCheck.Test.make ~name:"find_all matches reference on low-entropy input" ~count:500
    QCheck.(pair (int_range 0 100000) (int_range 8 20))
    (fun (seed, nlen) ->
      let rng = Prng.of_int seed in
      let gen_char () = if Prng.bool rng then 'a' else 'b' in
      let hay = String.init 300 (fun _ -> gen_char ()) in
      let needle = String.init nlen (fun _ -> gen_char ()) in
      let haystack = Bytes.of_string hay in
      let reference =
        let acc = ref [] in
        for i = 300 - nlen downto 0 do
          if String.sub hay i nlen = needle then acc := i :: !acc
        done;
        !acc
      in
      Bytes_util.find_all ~needle haystack = reference)

let suite =
  [ ( "bytes_util",
      [ Alcotest.test_case "find_all basic" `Quick test_find_all_basic;
        Alcotest.test_case "find_all overlap" `Quick test_find_all_overlap;
        Alcotest.test_case "find_all none" `Quick test_find_all_none;
        Alcotest.test_case "find_all range" `Quick test_find_all_range;
        Alcotest.test_case "find_all at end" `Quick test_find_all_at_end;
        Alcotest.test_case "find_all long needle" `Quick test_find_all_needle_too_long;
        Alcotest.test_case "find_first" `Quick test_find_first;
        Alcotest.test_case "count" `Quick test_count;
        Alcotest.test_case "zeroize" `Quick test_zeroize;
        Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
        Alcotest.test_case "hex known" `Quick test_hex_known;
        Alcotest.test_case "hex bad input" `Quick test_hex_bad;
        Alcotest.test_case "human_size" `Quick test_human_size;
        QCheck_alcotest.to_alcotest prop_find_all_matches_reference;
        QCheck_alcotest.to_alcotest prop_find_all_low_entropy
      ] )
  ]

(* Output digests at seed 42: the MD5 of each engine report's JSON and
   of each Optimal verdict, in the order each workload's set-up lists its
   jobs. A change that alters any routing decision, delivery or solver
   result changes one of these. *)

let seed = 42

let digests =
  [
    ( "trace-heavy",
      [
        "828a17ea35511d328485a3566fd5e9cc";
        "ed257b6496b64e69786b4612586b559b";
        "7d19b46cc3238658934462c40a6101f3";
        "bbb7c118d03e2dcc7a0bf51f31b903fb";
      ] );
    ( "powerlaw-buffered",
      [
        "2253a8fd1ba5ee5d15422cfeb1cfa68a";
        "fc4c4e87651df604730acb646f67cf94";
        "939be593a9514cb8d3d505ebbbc13b57";
        "cd7602a866e12a0c418705f1702cdf77";
        "1f2d858d6460a3355db83c361b6e09a1";
        "f19ec354aa0ebd3eea9a6f6d912defca";
        "d9552598ffd100d8f4874bfd646682ee";
        "e556925fac777de99183c965c048484d";
        "649d30093f13b4f2b09d96fa3de6a8d1";
        "7c84f40c1f68a710228ef53b591a937e";
        "4f13fe04102db6d0c2d0b7b7e25d82da";
        "effece417d5cebb0bc8d1ed147620a50";
        "ef9af32311939d0490b868c6d30668a1";
        "9f33afeee21fb20cc6f2bcfced9effcd";
        "6c0e580999cc5708c60aa45e7aeaea89";
        "03c852b86c9beb29c3c281afe63bd1b2";
        "585c3a4358739e170a30ab4772c471e4";
        "40fa91add98d8a585172fb132b139c90";
        "5886bba6aaeab01a6886beb37f22b793";
        "d3d1b16626f710beed04eeb18080cdec";
        "9974d7d1370dd6a97721dd751399331f";
        "0bd7cf1cf6dbe870b46d781bfdd54e35";
        "cb47848dbaee22f38a86fe396babad81";
        "eb50e7ed0a1f28a31df807f53e6bcdb4";
      ] );
    ( "trace-faulted",
      [
        "e1eee5c4fa673bb59a33565b0daebb6c";
        "3a8174bc335e02387f8d983ac9f44fba";
        "5c3b72f211b362ae0ebb71fce7359c8f";
        "83668242f745c1e0b479a3f9e25485c9";
        "31412b3cbf8b63692e82143df88ee581";
        "ef4f90af8fcf106c9aaf6570887af07e";
        "b9ea74c31d2df1b13145a678d4a97f2d";
        "70e18970ca13d967cde9680c6b64e248";
        "ec867405f96ddbca51b6df4fe2941ff6";
        "20996f4fb477c6b188ff01165de71574";
        "9c7abb2e82b99d5ede76cdfc7c5b5ba5";
        "9dba66934bbc7d40fce2bb2dc564f65d";
        "5bd34681851fb9ae0d0093233b0d64d2";
        "d849ab6056381623abc6650531b932f7";
        "d47e77e3914de9e1a1f7fbb726a88f90";
        "c168f6d1c76f38260ba1d191f70fcace";
      ] );
    ( "optimal",
      [
        "10b54bafde6fa8371529c83b9358c585";
        "c628baf8c9a03ce03fd7c543bcb583c8";
        "302623c60f1b5f780262d15af896e580";
        "9174e96e97abba5fcd5f3e78023c0398";
        "1b346bd017d60e891ea651a7c18e47b0";
        "5e9066306d30ea4b93d03fcdc813a393";
        "6248f53059989ce348d7127dee75ca22";
        "5330fa9b45ba6befd1cbeebd91ef49a3";
        "383a2eca97d83e2c6d9f71a94e16ac1b";
        "f7d93602aa6c854272d7f51f683b31c0";
        "c8b8ab39d853c0d1b4b59e391f5ce373";
        "ae3fa0f0744457a904c79d4ce39fac2f";
        "414cb802a86327f2d52720a5eefebb40";
        "b0ce1dd118e65d0c8e08e2f64186077c";
        "56aa2071bc3229775574450fbf25bb6b";
        "fd53ecef1c6bec9440463209791f0998";
        "75b0c2833daac86b436a5def620efea6";
        "7847b22cac33934ca59fea10ffe05ef8";
        "3a06d1009b24b04fe271015d35ddb56c";
        "6a816866040ac8994a2b0c84b9be3fc6";
        "9ab87be9ee94e22262d06faaaa0ae4b6";
        "32e63071f6550eb04863e13fa93647ca";
        "99c210c26afddc0652f692d2af1c193c";
        "606c07e5eccd2606ae66b98c85fae16c";
        "24099bbae2f912d6d9f42be5ef74da64";
        "9228b4818b897761070680b3c19526cc";
        "222b03d929e1802119fe635c25151b97";
        "184a7f2c0e3862159c9c4c50a1b57f8a";
        "373247be2b86ded05bcf57749d10cb8c";
        "63fdabe82fed796a2176386616ee6171";
        "49abc94d9a1b6020ad3f6e8e3f422508";
        "3fb169832b235da6bbaeaf1ad81c6658";
        "de1a154c92e51ecc8755a0526cf03358";
        "0fae6ee865fabf81f46c322a27ba6f42";
      ] );
  ]

package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"hpcqc/internal/workload"
)

// goldenPopOrder pins the SHA-256 of every cell of a short saturated bursty
// sweep, recorded from the linear-scan queue that preceded the keyed heap.
// The byte-identity gates elsewhere compare reruns of one build; these
// digests compare builds, so a pop order that drifts from the recorded one
// for any order × priority × preemption combination fails here. Keys are
// "<trace>/<scheduler>/<priority>/<preemption>".
var goldenPopOrder = map[string]string{
	"deadlines/fair-share/age/off":                            "c5828d727e8bc52b130d4ed2b88fb883d0945de03068de91963449cfab6bcc3c",
	"deadlines/fair-share/age/on":                             "c8bc0ca749b10eb764e15999ab533bd95df4a8bbce1303162cd67deb7c68c16e",
	"deadlines/fair-share/constant/off":                       "a5905712f99a304cde483b89701af114d656c2d39306ecc8aa97af135887a7d8",
	"deadlines/fair-share/constant/on":                        "7a0ec225472db00e6be0e4e05a92975ebe34ea31bd0443b528219900b912e23d",
	"deadlines/fair-share/edf/off":                            "1b9ca86d15bc4e95adb7555464ec2414b63aabdf0bff5ce25717c6026a4ce6d4",
	"deadlines/fair-share/edf/on":                             "50ca568ef093c6b6b88a31c9dae96a3e2f3e0896b88ec02df70d74f8a12fb3ec",
	"deadlines/fair-share/slo-urgency/off":                    "1654d26e7e827a1187bfe3570c08af7276a32af6b943cd6c84c7772538c03630",
	"deadlines/fair-share/slo-urgency/on":                     "31d502b9de05417c541df00a5203b7945d3a1710041953cb2681cdab1cbcb417",
	"deadlines/fair-share/slo-urgency:deadline=0s/off":        "3f2e345c9c9a20281026860b4a284da43381687b84f3eb3fffb5400c7ce9af95",
	"deadlines/fair-share/slo-urgency:deadline=0s/on":         "270a3ef6c28b4e2201f9e87365761a1dd3e0a425d8e3cb912475a1e8f73d5e13",
	"deadlines/fifo/age/off":                                  "50fa0507f7182911954840ea4678bef9d270b25752523e1aae836b934205cafc",
	"deadlines/fifo/age/on":                                   "3e3bfa2641cb63bd4c0f75b2c7b99bb743b3853ee435b315aeb8042cbf83539d",
	"deadlines/fifo/constant/off":                             "4dce1a7448d97bdc8a110133512483c54aa4f223bf4cfcd04d56294e33af600a",
	"deadlines/fifo/constant/on":                              "3d635752fcdbfdd737f99c6c62a4c043a458503f54019bab97239c476cb95fb3",
	"deadlines/fifo/edf/off":                                  "d410c54a37060e33ad01fec4dc36c97448967806f632a1d891ec7902e2bd76bc",
	"deadlines/fifo/edf/on":                                   "1315da6eb6f0a10e7bab25be00354dba5fbca3074bdc7963a7079cda0b7bb4a0",
	"deadlines/fifo/slo-urgency/off":                          "bdf889d98d30c72a177e123748dd422d6659bd749401a288c6fab6d4511d6ade",
	"deadlines/fifo/slo-urgency/on":                           "237e98e86e71ad78ae4497e4682a08b68137691c04269520851ce72cf550866f",
	"deadlines/fifo/slo-urgency:deadline=0s/off":              "fbb79726048f11e4088bff812e2519f9533b0bdb8a2b4aae0835442498474bfc",
	"deadlines/fifo/slo-urgency:deadline=0s/on":               "04bf1fd5b46a896b2330b730b5c78babf561a84431ef7c2ec2cf15064d887946",
	"deadlines/shortest-first/age/off":                        "9cef590d37404106736b8d911299ef6adb7f692b1f9bda02978d2bfb0b5ab0a5",
	"deadlines/shortest-first/age/on":                         "79f2147302b183f54e43ad7fe0d861cb968e3d9890007d2d3ab192667f3a24a0",
	"deadlines/shortest-first/constant/off":                   "b0ec8cbd4080bc607f0c30141626ff520f32f121b5c5c4b4a3ffe57bd7b98d3a",
	"deadlines/shortest-first/constant/on":                    "c3d2f5ec542f20b23e8bed8dc91ca1642e8341e02b9f9437dc6d93b4de83b976",
	"deadlines/shortest-first/edf/off":                        "2358fc407d3265d34b6910f113f077a5467a4f4d1cdeb137687ec5420546c0f0",
	"deadlines/shortest-first/edf/on":                         "832f79a75cb850bccb926c458f426ad22f9905fa23d3e7bcef693781ae9c6a0c",
	"deadlines/shortest-first/slo-urgency/off":                "3259f69928148cb4bc89e881a7a91a307dff4b2e40f1af2dcb99001518420342",
	"deadlines/shortest-first/slo-urgency/on":                 "bf1aa5397300013c24096e309aed5da3a118aef3acde41686f53f8058998bd00",
	"deadlines/shortest-first/slo-urgency:deadline=0s/off":    "00b63febe70eb803d87e6dedc87285ec3ef66dc490f33d853c371ffb8fef494c",
	"deadlines/shortest-first/slo-urgency:deadline=0s/on":     "17941259de7d7e06b1ec52307cd9a48d921f839ce6fc8a5bb3e6db18f3bfaee0",
	"no-deadlines/fair-share/age/off":                         "be0d35422141f8970effc499ae74dfb7f1732331af169c4841bf931055f664de",
	"no-deadlines/fair-share/age/on":                          "cd635507bd28a59400366998f52e7b861075d09c8d8556c735697ca20e413cd1",
	"no-deadlines/fair-share/constant/off":                    "2bc8ee824a916eb806a7b5ea8c1748678c6632d2955242ad94d0633667a573c0",
	"no-deadlines/fair-share/constant/on":                     "a634c5850bf4374358fe71e7b38b866baea72a463bb06836309042df37e480d5",
	"no-deadlines/fair-share/edf/off":                         "ae891f4d94db8dcabb9a01b81aaeebecf70999540f16442632c2074c700553bb",
	"no-deadlines/fair-share/edf/on":                          "2ca45d23a1e002ccac2d081504f6b19b5a8a1763b35a22edc89ad90507ff973b",
	"no-deadlines/fair-share/slo-urgency/off":                 "8d76ec7102834723e554a3b2f4da73e2b7c2c6fa4aa22526ef3e7fa197a08051",
	"no-deadlines/fair-share/slo-urgency/on":                  "93aff31bf9db51850d0e8a9d6ffdbb3d5ff691fa72682a9c804bca181fe7fef1",
	"no-deadlines/fair-share/slo-urgency:deadline=0s/off":     "7e4acb2b67a7b7de62edf20d0b1bd25064375e276f005910c3e956578ba34d18",
	"no-deadlines/fair-share/slo-urgency:deadline=0s/on":      "6a4708274873cf3a4770ba4634fd868f68566ccb3eabf54d09d2fe1d7064b3de",
	"no-deadlines/fifo/age/off":                               "057c77d99ca1512ceadb358a8692ee8354cec2d06568ab65ff1be80c07aeb8e2",
	"no-deadlines/fifo/age/on":                                "9d510c53eba7b10edc99b98dbb2a88876b277d36cc9e7319420eb520a8d2765d",
	"no-deadlines/fifo/constant/off":                          "1e82d9f6696805f943569295709bd535c33a01bd9da857c6c84cc9ef881a1cb4",
	"no-deadlines/fifo/constant/on":                           "1357c970e4a8b0f17bcc0083e8bf4d2e2502b3dfe7f96d9b90806a9f0e52ae07",
	"no-deadlines/fifo/edf/off":                               "95e73bd676307897e0c4b9ff138f6d0cb563bd3b0416331c5255db7eb04c9d4b",
	"no-deadlines/fifo/edf/on":                                "3326105715bde8305bd17755b4b4a569f094deb6358ee0c4c51ba8f46d9535eb",
	"no-deadlines/fifo/slo-urgency/off":                       "a76a1336518afcaf422968999d8eeb94c4596ca1f60349862980e690b33b772f",
	"no-deadlines/fifo/slo-urgency/on":                        "cdb93a03e234e544d9ad459acc5827325009884784faa5cf16b366f47863c7ff",
	"no-deadlines/fifo/slo-urgency:deadline=0s/off":           "658a15ce7fbd32a250ec52940de07bea9a61c01f18580e182337bd705227d198",
	"no-deadlines/fifo/slo-urgency:deadline=0s/on":            "c357af95b7f9c1ea871c8bee6447382f9d6d994693a5ef58e13cc543c153f070",
	"no-deadlines/shortest-first/age/off":                     "bc9e60f609eef14ba0c56db499a8e469bf6ebde68ef54f13b3e47ac0ebf3a84b",
	"no-deadlines/shortest-first/age/on":                      "21e07e0a014bad43afc2524eb3bf0adeaa0b969bfc0e380cdb9bb8ae4753bfe7",
	"no-deadlines/shortest-first/constant/off":                "5b4f5e814044fc25435995b9d8113e79ac38d430b810008545b161cd624e036b",
	"no-deadlines/shortest-first/constant/on":                 "6b9bd2200de44a00d85c5b799a682a00a6604f51f9a68b84fda6227f811a319f",
	"no-deadlines/shortest-first/edf/off":                     "a2ad388e81a4f210e699a32aa604531e669de1dc19b952178248900ba359a082",
	"no-deadlines/shortest-first/edf/on":                      "f9de9fdcb7a49fcf3bc8b65db98608efc80204eb1a5e5df9e4c828a29becd4a0",
	"no-deadlines/shortest-first/slo-urgency/off":             "e738e4580d8ead03cac4825e71d3401abb6c6bb7189b0ee2475efc30c0481f18",
	"no-deadlines/shortest-first/slo-urgency/on":              "77c40e7d87da6e5a00799edb57f6e08cc0216f4d1b66cb8a6987ae17c61525f0",
	"no-deadlines/shortest-first/slo-urgency:deadline=0s/off": "0798ae387a2e33cafcfa38cdf2460108bd771cf75a4cfadce109e9c8ffc754e9",
	"no-deadlines/shortest-first/slo-urgency:deadline=0s/on":  "1a865ab8dc7debac724e9025494bf97387c8af32f51191acf119aab8530fe211",
}

// goldenTrace generates the 2-partition saturating bursty trace behind the
// cross-build golden digests: 2.2k jobs in 90 minutes against ~4 hours of
// capacity, so every pop path ranks a backlog of hundreds to thousands.
func goldenTrace(t *testing.T, deadlines bool) *Trace {
	t.Helper()
	proc, err := NewProcess("bursty", 700)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 7, Horizon: 90 * time.Minute, Process: proc, Users: 24}
	if deadlines {
		cfg.Deadlines = workload.DefaultDeadlines()
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestGoldenPopOrderDigests replays the golden matrix — {fifo, fair-share,
// shortest-first} × {constant, age, slo-urgency, edf,
// slo-urgency:deadline=0s} × preemption {on, off} on a deadline-stamped and a
// deadline-free trace — and checks each cell's report digest against the
// recorded one.
func TestGoldenPopOrderDigests(t *testing.T) {
	got := map[string]string{}
	for _, tc := range []struct {
		name      string
		deadlines bool
	}{{"deadlines", true}, {"no-deadlines", false}} {
		s, err := Sweep(goldenTrace(t, tc.deadlines), SweepConfig{
			Devices:     2,
			Seed:        7,
			Routers:     []string{"least-loaded"},
			Schedulers:  AllSchedulers(),
			Admissions:  []string{"accept-all"},
			Priorities:  []string{"constant", "age", "slo-urgency", "edf", "slo-urgency:deadline=0s"},
			Preemptions: []string{"on", "off"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Results) != 30 {
			t.Fatalf("%s: %d cells, want 30", tc.name, len(s.Results))
		}
		for _, rep := range s.Results {
			prio := rep.Priority
			if prio == "" {
				prio = "constant"
			}
			pre := rep.Preemption
			if pre == "" {
				pre = "on"
			}
			sum := sha256.Sum256(marshalReport(t, rep))
			got[tc.name+"/"+rep.Scheduler+"/"+prio+"/"+pre] = hex.EncodeToString(sum[:])
		}
	}
	for k, want := range goldenPopOrder {
		if got[k] != want {
			t.Errorf("%s: report digest %s, recorded %s", k, got[k], want)
		}
	}
	if len(got) != len(goldenPopOrder) {
		t.Errorf("matrix has %d cells, %d recorded", len(got), len(goldenPopOrder))
	}
}

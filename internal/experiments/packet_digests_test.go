package experiments

// Packet-engine results beyond TestGoldenEngineDigests' reach. The golden
// file runs DefaultConfig at 64 KiB only; this test pins cycles and the
// Result digest (not traces) under message-based flow control on every
// golden fabric, the Fig. 11 menu on the 8x8 torus at 256 KiB, runs with
// lockstep off, multi-packet multi-hop runs under mid-flight latency and
// bandwidth faults, and the text of the torus stall. A run that fails is
// pinned by its error text.

import (
	"fmt"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/network"
	"multitree/internal/topospec"
)

// packetCase is one pinned packet-engine run.
type packetCase struct {
	topo, alg string
	kib       int
	msg       bool
	lockstep  bool
	faults    string
}

func (c packetCase) name() string {
	n := fmt.Sprintf("%s/%s/%dKiB", c.topo, c.alg, c.kib)
	if c.msg {
		n += "/msg"
	}
	if !c.lockstep {
		n += "/free"
	}
	if c.faults != "" {
		n += "/" + c.faults
	}
	return n
}

// run simulates the case and reduces it to cycles and the Result digest,
// or to the error text when the run fails.
func (c packetCase) run(t *testing.T) string {
	topo, err := topospec.Parse(c.topo)
	if err != nil {
		t.Fatal(err)
	}
	s, err := algorithms.Build(topo, c.alg, (c.kib<<10)/collective.WordSize, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.DefaultConfig()
	cfg.MessageBased = c.msg
	cfg.Lockstep = c.lockstep
	if c.faults != "" {
		if cfg.Faults, err = faults.ParseSpec(c.faults); err != nil {
			t.Fatal(err)
		}
	}
	res, err := network.SimulatePackets(s, cfg)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("cycles %d, result %s", res.Cycles, digestResult(res))
}

// packetCases lists the pinned runs in the order of packetDigests.
func packetCases(t *testing.T) []packetCase {
	var cases []packetCase
	for _, spec := range []string{"torus-4x4", "mesh-4x4", "fattree-16", "bigraph-32"} {
		topo, err := topospec.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range algorithms.Supporting(topo) {
			cases = append(cases, packetCase{topo: spec, alg: alg.Name, kib: 64, msg: true, lockstep: true})
		}
	}
	for _, alg := range Fig11Algorithms() {
		cases = append(cases, packetCase{topo: "torus-8x8", alg: alg.Name, kib: 256, msg: alg.Msg, lockstep: true})
	}
	for _, spec := range []string{"torus-4x4", "fattree-16"} {
		for _, alg := range []string{"ring", "dbtree", "multitree"} {
			cases = append(cases, packetCase{topo: spec, alg: alg, kib: 64, lockstep: false})
		}
	}
	const midFlight = "link:0-1@t=3000:lat+40,link:5-6@t=2000:lat+7,link:1-2@t=5000:bw=0.5,link:4-5@t=4000:bw=0.25"
	for _, alg := range []string{"dbtree", "2d-ring", "multitree"} {
		for _, msg := range []bool{false, true} {
			cases = append(cases, packetCase{topo: "mesh-4x4", alg: alg, kib: 256, msg: msg, lockstep: true, faults: midFlight})
		}
	}
	cases = append(cases,
		packetCase{topo: "mesh-4x4", alg: "dbtree", kib: 256, msg: true, lockstep: false, faults: midFlight},
		packetCase{topo: "fattree-16", alg: "ring", kib: 256, msg: true, lockstep: true, faults: "link:0-16@t=1500:lat+25,link:16-1@t=2500:bw=0.5"},
		packetCase{topo: "mesh-4x4", alg: "multitree", kib: 256, msg: true, lockstep: true, faults: "link:0-1@t=3000:lat+40,link:5-6@t=2000:lat+7"},
		packetCase{topo: "torus-4x4", alg: "hdrm", kib: 256, lockstep: true},
		packetCase{topo: "torus-4x4", alg: "ring", kib: 256, lockstep: false, faults: "link:0-1@t=5000:down"},
		packetCase{topo: "mesh-4x4", alg: "multitree", kib: 256, lockstep: true, faults: "link:5-6@t=4000:down"},
	)
	return cases
}

// packetDigests were recorded on the engine that queued one record per
// packet at issue and gave every packet an arrival event on every hop.
var packetDigests = []string{
	// torus-4x4/ring/64KiB/msg
	"cycles 12210, result 2cdf2b084e21101f6478b506eb3311b60720fd29838eb913f3ace8eca68e129f",
	// torus-4x4/dbtree/64KiB/msg
	"cycles 15405, result 96a62b41e152cdca8ce8aaaace413621986412b7dcd6b2061b27a27787b6f35a",
	// torus-4x4/2d-ring/64KiB/msg
	"cycles 4884, result a68281ca4baf6e8cec2a91a93e7bcb9f7d0f34d972a8a79bd80b03c1018e7b0f",
	// torus-4x4/hdrm/64KiB/msg
	"cycles 11452, result b6548903af6d64e8a7e2bf0fa29b6ee8d320e00734eed2fafeb471e73f4d9acf",
	// torus-4x4/multitree/64KiB/msg
	"cycles 3470, result 89d40bb4f0e41dd492de38ba11ffa49801b44dcbba25ec2d5b1980269a6a58f3",
	// mesh-4x4/ring/64KiB/msg
	"cycles 12878, result 73973fecb813bd0f429adbda6f7050d7055889539176f15890265ec6a4d7aa0c",
	// mesh-4x4/dbtree/64KiB/msg
	"cycles 15233, result 2fbd0cbe95ef9b6d04adecdba9118681c6cd91a9f1b529dcf62cef29741b8e82",
	// mesh-4x4/2d-ring/64KiB/msg
	"cycles 9549, result 478cac0c6d6411c7e67e4acd34338a42e1ec0cd7461b08ad5605c0c253afd265",
	// mesh-4x4/hdrm/64KiB/msg
	"cycles 10761, result 9010a5f7a1cc2ce1ab1eba532604ddd9123e7f6851566d3368abd744db0ef3e2",
	// mesh-4x4/multitree/64KiB/msg
	"cycles 6533, result e0815645636ff4aa595225b39bdd6582daa18094bab384bd28b66ede2f9e875d",
	// fattree-16/ring/64KiB/msg
	"cycles 19892, result 68fdacb088503116508f5fab7ec7fd5bed84006d22ee0aae047a00a198e4c524",
	// fattree-16/dbtree/64KiB/msg
	"cycles 20325, result 9be1e501570292b9e87809f82cc34d4fdce29ae50c01317f83d5287e955e32ca",
	// fattree-16/hdrm/64KiB/msg
	"cycles 11560, result 9096e8dfb1f1d4463dff35deb523f30577b3ba41a98f9755b81d6778ec61ba28",
	// fattree-16/multitree/64KiB/msg
	"cycles 9012, result 24a6710ba6f655692c5b70825a8b29bab4bf968c59584202c038d47165a82bd9",
	// bigraph-32/ring/64KiB/msg
	"cycles 32328, result a071ccb6be9faf0a96ad0770da825a7d7de1ba9bb74b3598d500887fdeb23d69",
	// bigraph-32/dbtree/64KiB/msg
	"cycles 28772, result d35add94a7e5786f02e36044e96970caef7d1b50ba10702165b3577435c478e2",
	// bigraph-32/hdrm/64KiB/msg
	"cycles 12786, result e1bb2f309c739d34c17d4d251a74fc899bf89f5d44d5326cf2b16ac9d06f10e4",
	// bigraph-32/multitree/64KiB/msg
	"cycles 13294, result 48a97ea3a48d0b443044339f5e9989a9e7dfe00186e95204e2d49d0ca222ea39",
	// torus-8x8/ring/256KiB
	"cycles 53172, result 13c4f8e57a676066c5b1f3ef7aaad672c4bc1132dc161fb0411496b1c3f045c6",
	// torus-8x8/dbtree/256KiB
	"cycles 67216, result 501b46cbc9db6f883d01cc3ce022340716b801a5e03dab43eca94016b0b60da3",
	// torus-8x8/2d-ring/256KiB
	"cycles 19432, result 08071a820b923ad1907e38346ac824383303129e0cff7502e77acd231d5e4f84",
	// torus-8x8/multitree/256KiB
	"cycles 10748, result dc7a8ad4a7be2caab14139e1dc28f5c52a43177780b086573413d7579556530a",
	// torus-8x8/multitree-msg/256KiB/msg
	"cycles 10238, result 0a95bcc5213206c6645714cc4972e8cc3b98efdce8c155f6fac7a1c29c7b3ba1",
	// torus-4x4/ring/64KiB/free
	"cycles 12660, result cd009bd61a2e7e85e774163e94e7e57489b7136f2e448e7b8dae0ee6ce1ccc94",
	// torus-4x4/dbtree/64KiB/free
	"cycles 11030, result 7ffe3119f4f01541e8c2976c2d981e403dc2cd6fd5ec62197ae0ab83057c4034",
	// torus-4x4/multitree/64KiB/free
	"cycles 4192, result 335db3c691277624eed9a3f4c15c2bccc8b719d5b95fa00111dc30680533f2fd",
	// fattree-16/ring/64KiB/free
	"cycles 20342, result b2ff0eb6856c8471d199dd29c54a48fb5b3419401dc0a6c2b8de049e354bf58e",
	// fattree-16/dbtree/64KiB/free
	"cycles 14589, result 7a9880517022a6333c327279c3c79a83f4a1c6beae43b7c316ada3b295e2bf6c",
	// fattree-16/multitree/64KiB/free
	"cycles 12936, result c7302f17c7153d77967bbe39f09f7e01bd5ea7f1b2d546206a488b4718d90a2a",
	// mesh-4x4/dbtree/256KiB/link:0-1@t=3000:lat+40,link:5-6@t=2000:lat+7,link:1-2@t=5000:bw=0.5,link:4-5@t=4000:bw=0.25
	"cycles 121835, result 37a2c3dce4a5d5a1bd143dd9c7f8b8922d62db125d90df3880d1313af300563d",
	// mesh-4x4/dbtree/256KiB/msg/link:0-1@t=3000:lat+40,link:5-6@t=2000:lat+7,link:1-2@t=5000:bw=0.5,link:4-5@t=4000:bw=0.25
	"cycles 114944, result 089f7653831c09f111a96d9ed1d3ac30619928bd5d230d21b84ad2f5c69b9ea0",
	// mesh-4x4/2d-ring/256KiB/link:0-1@t=3000:lat+40,link:5-6@t=2000:lat+7,link:1-2@t=5000:bw=0.5,link:4-5@t=4000:bw=0.25
	"cycles 93937, result a47b1663fc3127c5cb571094359596c747b0be9f54f5eafb42849431550e04e2",
	// mesh-4x4/2d-ring/256KiB/msg/link:0-1@t=3000:lat+40,link:5-6@t=2000:lat+7,link:1-2@t=5000:bw=0.5,link:4-5@t=4000:bw=0.25
	"cycles 87907, result cb2a6ce9a219de2df84dcee2f7c9a03c1c4e29251441fc41216139e474f6d841",
	// mesh-4x4/multitree/256KiB/link:0-1@t=3000:lat+40,link:5-6@t=2000:lat+7,link:1-2@t=5000:bw=0.5,link:4-5@t=4000:bw=0.25
	"cycles 70952, result 5d0cc5e581c7e6636ff6e878255d3a8a5be0b6f440134ed70a05d21417b6fb44",
	// mesh-4x4/multitree/256KiB/msg/link:0-1@t=3000:lat+40,link:5-6@t=2000:lat+7,link:1-2@t=5000:bw=0.5,link:4-5@t=4000:bw=0.25
	"cycles 66188, result b2b062fd81dcb956c138eb95679272f11224e976f70f26d42d525c5198d21163",
	// mesh-4x4/dbtree/256KiB/msg/free/link:0-1@t=3000:lat+40,link:5-6@t=2000:lat+7,link:1-2@t=5000:bw=0.5,link:4-5@t=4000:bw=0.25
	"cycles 87465, result 5e556b7f65de4136e352de9c5d458cf23e99464b2e90fd92467cda63bafcd260",
	// fattree-16/ring/256KiB/msg/link:0-16@t=1500:lat+25,link:16-1@t=2500:bw=0.5
	"cycles 61200, result 3618be7197659812a9404d03aac44ca4ad88e8b4486bba7eedaef6218b398ffe",
	// mesh-4x4/multitree/256KiB/msg/link:0-1@t=3000:lat+40,link:5-6@t=2000:lat+7
	"cycles 21670, result f2acfc0b3390e647b19bde0a7780fd9b1653a6e798e2599c3969dc823b88929a",
	// torus-4x4/hdrm/256KiB
	"error: network: packet simulation stalled with 16/128 transfers done (hdrm on torus-4x4); t16 has 256 packet(s) stranded; t17 has 256 packet(s) stranded; t18 has 256 packet(s) stranded; and 109 more; node 0 stuck at step 2",
	// torus-4x4/ring/256KiB/free/link:0-1@t=5000:down
	"error: network: packet simulation stalled with 184/480 transfers done (ring on torus-4x4); t75 has 61 packet(s) stranded at failed link n0->n1; t90 has 64 packet(s) stranded at failed link n0->n1; t91 waiting on t75; and 293 more",
	// mesh-4x4/multitree/256KiB/link:5-6@t=4000:down
	"error: network: packet simulation stalled with 178/480 transfers done (multitree on mesh-4x4); t7 ready, step 8 gate closed at node 6; t10 waiting on t7; t11 ready, step 9 gate closed at node 5; and 299 more; node 0 stuck at step 11",
}

func TestPacketEngineDigests(t *testing.T) {
	cases := packetCases(t)
	if len(cases) != len(packetDigests) {
		t.Fatalf("%d cases, %d pinned digests", len(cases), len(packetDigests))
	}
	for i, c := range cases {
		t.Run(c.name(), func(t *testing.T) {
			if got := c.run(t); got != packetDigests[i] {
				t.Errorf("\n got %s\nwant %s", got, packetDigests[i])
			}
		})
	}
}

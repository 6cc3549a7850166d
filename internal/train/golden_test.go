package train

import (
	"context"
	"testing"

	"repro/internal/kge"
)

// goldenDigests pins kge.Fingerprint after short training runs on the tiny
// preset. The worker-count and kernel-mode gates compare two runs of the
// same code, so a numeric change both sides share passes them; these
// digests catch it. A change that alters them changes every checkpoint the
// trainer writes and must say so.
var goldenDigests = map[string]string{
	"batched/kvsall/adam/complex":        "c32759c10c7bcb8f45805f905d092051001223bfe7d579a4a7a1f1e5749455bb",
	"batched/kvsall/adam/conve":          "efe2d20aa43fa86efdf7b69bd4344c53013c121a88cae317f876f30915c9166f",
	"batched/kvsall/adam/distmult":       "a1a27dfd52ddb48a78f1b1f7254e895115adf3a1c22f334d6ef571347f01d849",
	"batched/kvsall/adam/hole":           "b820bac567f2ee57b3eedbd52a15432624ef39d6d6d7e6560588478429fcfc77",
	"batched/kvsall/adam/rescal":         "400dec4c04e213f1d11e226db8c259e4f0861ef4b6ddd15a058845d00509ce3a",
	"batched/kvsall/adam/transe":         "62af217996d8cefcd3180ba73c59324d3a275d90d768bc1d67e7e8a7e7d5933c",
	"batched/negsample/adagrad/complex":  "4bd30f27ec9daa7f5973a526c95d3c9b44571722ef62ac6030548970cdce197a",
	"batched/negsample/adagrad/conve":    "93739f89c6d337adc8b096d8498b17eb0ccb97e19c5e5aad9b6761154fcfd2e1",
	"batched/negsample/adagrad/distmult": "03728303509c338a468e0a46a76e693e583d449b388effa2c82b9c080517299e",
	"batched/negsample/adagrad/hole":     "db12b6058aa5461a197b6d2068d33f3571118b8a9d034625e83353e07c68fcf3",
	"batched/negsample/adagrad/rescal":   "7a9ddc419560ae5c5e2cda55e6ab41e76656c92943409adf83aefc1389b9888a",
	"batched/negsample/adagrad/transe":   "133446243d20f5df1b079109be2824c57f60cb74fecea194b483b743db1440c9",
	"batched/negsample/adam/complex":     "e4a021236db0505116786aca8196ac6305c7dbdbf868b2ab8b4e65f82ed89609",
	"batched/negsample/adam/conve":       "2db68f8e667f53344fa76f662d61900cbd6e53cb2a5d960f33f9f59cdbe9f2bf",
	"batched/negsample/adam/distmult":    "47981d1964d9ab0524e683531865d7f21331286dabdc8e648147946456977d33",
	"batched/negsample/adam/hole":        "8d6eac8da915070531b66087af6919baeb680d9066d4c7f6d55f2572e4196036",
	"batched/negsample/adam/rescal":      "a960ad86c55d6abcc359efe04a8cd48df930cffe9cc8083ee91ce133a86cd0ca",
	"batched/negsample/adam/transe":      "f0f8c6f079e6303e4d78e11b0b4224a2f867d2903bf4100e99e53b18f8f9fad3",
	"scalar/kvsall/adam/complex":         "ba1a1cbcced4392c0859c9d7511bcb666d7f039edea2eeab71c929cf04024c63",
	"scalar/kvsall/adam/conve":           "13638170094ae96414386fe23b635bba6e8023e6ee9379a7a363939f64f1ce70",
	"scalar/kvsall/adam/distmult":        "d1a0472b3210f29ae8e31ea7b35c4d52ff0b008fa12588744fa7ebcf9d4eb618",
	"scalar/kvsall/adam/hole":            "1f9c71072da044a9f2523e3bf0e5215716e205a449d08347c0d820d53c0ef03c",
	"scalar/kvsall/adam/rescal":          "b5f0a03dc66d1e2322cf4262cbef24747e27422a532a7342f39a44cb68f8f9dc",
	"scalar/kvsall/adam/transe":          "9aa690500bd16e26fc70a14a2bc36d1f785a4693402d4eb9b19da707ec364a89",
	"scalar/negsample/adagrad/complex":   "e8554669b93205c4871e23f1f068f94a7fd526d31629cb3e24bc169baa445f6a",
	"scalar/negsample/adagrad/conve":     "a97a7007641c14238571d0a6a9191643af21fab1829ba264fa6de1fcfe71acbf",
	"scalar/negsample/adagrad/distmult":  "d7c5aac7b01c5cb7a22ae720c311fe8ca84dee0ee78227cd7edfc3d837c0cc68",
	"scalar/negsample/adagrad/hole":      "737170d994810f40982154182aec85d48cc799e4a7ffef17b75d1f34fc8bf040",
	"scalar/negsample/adagrad/rescal":    "80ba38fe3434c944eb12a19ca1f7a21c61570591e93f62504e28b8c39890db29",
	"scalar/negsample/adagrad/transe":    "be13f99224749a87f6cf09b9c126be83d4ae484394e464e184e8df2bb4c099e9",
	"scalar/negsample/adam/complex":      "7e3844d1d0ea7a78a71444eb1f60756ec9cc2a23ac1df04a6aa8d6d0a09265f3",
	"scalar/negsample/adam/conve":        "8a7ba77d0ac207ae399154040bcb35d6a6ca2a4d3a5f5894b3c3c6ae91b9a26f",
	"scalar/negsample/adam/distmult":     "4b6a9de103a1cf5738a74243013593c822fa26d1d03d417c526c241565f0e825",
	"scalar/negsample/adam/hole":         "ae63755c90195ba66955406208f3b9ca22da7f6c1e3cc158b2919d6cb5e5a4c5",
	"scalar/negsample/adam/rescal":       "d62fe48b2fb12aa4c26cabd644b5052444355415f9f59cfc272d4fad9068f0a4",
	"scalar/negsample/adam/transe":       "6a6d2d70b76303261f2233c31fcbb10a731b99e475805dce385cbd112000e963",
}

func TestGoldenTrainingDigests(t *testing.T) {
	ds := tinyDataset(t)
	type run struct {
		objective string
		optimizer string
	}
	runs := []run{{"negsample", "adam"}, {"kvsall", "adam"}, {"negsample", "adagrad"}}
	for _, mode := range kernelModes {
		for _, name := range kge.ModelNames() {
			for _, r := range runs {
				key := mode.name + "/" + r.objective + "/" + r.optimizer + "/" + name
				mode, name, r := mode, name, r
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					m := determinismModel(t, name, ds)
					opt, err := OptimizerByName(r.optimizer, 0.05)
					if err != nil {
						t.Fatal(err)
					}
					cfg := Config{
						Epochs: 2, BatchSize: 64, NegSamples: 2, Seed: 17, L2: 1e-4,
						Workers: 2, ScalarKernels: mode.scalar, Optimizer: opt,
					}
					if r.objective == "kvsall" {
						_, err = RunKvsAll(context.Background(), m, ds, cfg, 0.1)
					} else {
						_, err = Run(context.Background(), m, ds, cfg)
					}
					if err != nil {
						t.Fatalf("train: %v", err)
					}
					got := kge.Fingerprint(m)
					if want := goldenDigests[key]; got != want {
						t.Errorf("%q: %q,", key, got)
					}
				})
			}
		}
	}
}

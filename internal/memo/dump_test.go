package memo_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/rules"
	"repro/internal/sql"
	"repro/internal/tpch"
)

// dumpDigests are SHA-256 digests of Memo.Dump for every TPC-H query
// over the TPC-H schema, with and without Cartesian products, recorded
// while dedup still keyed operators by formatted strings. Dump prints
// every operator's group.local name, payload, children and ordering
// contract, so any change in which operators dedup, or in the order
// they are numbered, moves a digest.
var dumpDigests = map[string]string{
	"Q3":        "ae14502db0aae0d503e7be8ba1815122c4902562f5ef2c8634de31dbf9756fd8",
	"Q3+cross":  "f817facf839b11eeb365388f88e7ecd03dfb9fdf67ec90f8d79e7f8a6cec9553",
	"Q5":        "dbe7836f3e674d8c09e88e699db3f5da3a9f996606f368d8a0681e331fc3a2e6",
	"Q5+cross":  "df9c5d924ccf389134b8cd559ed4ac68fc9c2a1154f874f2845a16b065775dfc",
	"Q6":        "a64da6945965d56859c8a6d26dfd23a9ef1f09fbe9ba2f0c2d8e757357e4d455",
	"Q6+cross":  "a64da6945965d56859c8a6d26dfd23a9ef1f09fbe9ba2f0c2d8e757357e4d455",
	"Q7":        "b48b5114bf84159d713e5ff5f3e0c354999aa0b57cf682ed15e098247d6739c7",
	"Q7+cross":  "9e59bcfad71e25ed446585930ff70412da2e584297cc7e6ff0b936aa8644a2c5",
	"Q8":        "94090680c621670c70a4894a2750688104b6154afc8827c8e7dec01feebcbaa5",
	"Q8+cross":  "b47844ff8bce3432e0dbbf3f239294638097be2ca264ee6360b05ba51e564efd",
	"Q9":        "295a31cfe2735a4eb6d4ff047c9aa06fe5d560718d754697e0ae8a671f1299cc",
	"Q9+cross":  "b463c7fbe131942bd403b304c7ef437739e80fccb8f390ae1372607d2181dd60",
	"Q10":       "d690daed31e6f01fa207d1618be2049de0eda2ea6dfc2917011c17163a773bfb",
	"Q10+cross": "f63e7f8d3cd5d501382442bfcc02707626c046b0081c326e0d85a58ee65c4883",
}

func TestDumpDigestsPinned(t *testing.T) {
	for _, q := range tpch.QueryNames() {
		for _, cross := range []bool{false, true} {
			name := q
			if cross {
				name += "+cross"
			}
			t.Run(name, func(t *testing.T) {
				sqlText, _ := tpch.Query(q)
				stmt, err := sql.Parse(sqlText)
				if err != nil {
					t.Fatal(err)
				}
				bound, err := algebra.Build(stmt, tpch.Schema())
				if err != nil {
					t.Fatal(err)
				}
				cfg := rules.Default()
				cfg.AllowCartesian = cross
				m, err := rules.BuildMemo(bound, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%x", sha256.Sum256([]byte(m.Dump())))
				if want := dumpDigests[name]; got != want {
					t.Errorf("Dump digest %s, want %s", got, want)
				}
			})
		}
	}
}

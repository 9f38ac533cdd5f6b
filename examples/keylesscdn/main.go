// Keyless CDN demo (the paper's §4.3 Phoenix discussion): a publisher
// provisions its content key into an attested enclave hosted by a CDN
// operator; readers fetch through the CDN, which serves bytes it cannot
// read. TEEs move the locus of trust to the hardware vendor and make
// the CDN operator a decoupled (▲, ⊙) entity.
//
//	go run ./examples/keylesscdn
package main

import (
	"fmt"
	"log"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
	"decoupling/internal/tee"
)

func main() {
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)

	vendor, err := tee.NewVendor("AcmeSilicon")
	if err != nil {
		log.Fatal(err)
	}
	enclave := vendor.Manufacture(tee.PhoenixProgram())
	publisher, err := tee.NewPhoenixOrigin("publisher.example")
	if err != nil {
		log.Fatal(err)
	}

	// The publisher attests the enclave before handing over its key —
	// it is trusting AcmeSilicon's signature, not the CDN operator.
	if err := publisher.Provision(vendor.PublicKey(), enclave, []byte("the subscriber-only longread")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("publisher attested the enclave and provisioned key + content")

	cdn := tee.NewPhoenixCDN("CDN Operator", enclave, lg)
	for _, reader := range []string{"alice", "bob"} {
		cls.RegisterIdentity(reader, reader, "", core.Sensitive)
		cls.RegisterData("/longread", reader, "", core.Sensitive)
		body, err := tee.PhoenixRequest(publisher.PublicKey(), cdn, reader, "/longread")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s fetched %d bytes through the CDN\n", reader, len(body))
	}

	fmt.Println("\nwhat the CDN operator's logs contain:")
	for _, o := range lg.ByObserver("CDN Operator") {
		fmt.Printf("  [%s %-13s] %s\n", o.Kind, o.Level, o.Value)
	}
	tuple := lg.DeriveTuple("CDN Operator", core.Tuple{core.NonSensID(), core.NonSensData()})
	fmt.Printf("\nCDN operator knowledge: %s — identity yes, content never\n", tuple.Symbol())
	fmt.Printf("a traditional CDN terminating TLS itself would be %s: not decoupled\n",
		core.Tuple{core.SensID(), core.SensData()}.Symbol())
}

// MPR demo: a two-hop Multi-Party Relay (the Private Relay
// architecture) on loopback TCP with nested TLS tunnels. Fetches a page
// through both hops and prints what each relay's logs would contain.
//
//	go run ./examples/mpr
package main

import (
	"fmt"
	"log"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
	"decoupling/internal/mpr"
)

func main() {
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)

	stack, err := mpr.NewStack(lg, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	fmt.Printf("relay 1: %s (sees you, not your destination)\n", stack.Relay1Addr)
	fmt.Printf("relay 2: %s (sees your destination, not you)\n", stack.Relay2Addr)
	fmt.Printf("origin:  %s\n\n", stack.OriginAddr)
	cls.RegisterData("connect:"+stack.OriginAddr, "", "", core.Partial)

	for i, who := range []string{"alice", "bob"} {
		path := fmt.Sprintf("/private-document-%d", i)
		cls.RegisterData(path, who, "", core.Sensitive)
		body, err := stack.Fetch(path, "", func(localAddr string) {
			cls.RegisterIdentity(localAddr, who, "", core.Sensitive)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s fetched %-22s -> %q\n", who, path, body)
	}

	fmt.Println("\nwhat each party observed:")
	for _, name := range []string{mpr.Relay1Name, mpr.Relay2Name, mpr.OriginName} {
		fmt.Printf("  %s:\n", name)
		for _, o := range lg.ByObserver(name) {
			fmt.Printf("    [%s %-13s] %s\n", o.Kind, o.Level, o.Value)
		}
	}

	expected := core.MPR()
	measured := lg.DeriveSystem(expected)
	fmt.Println("\nmeasured knowledge (vs the paper's §3.2.4 table):")
	fmt.Print(core.RenderComparison(expected, measured))
	v, err := core.Analyze(measured)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", v)
}

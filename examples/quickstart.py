#!/usr/bin/env python3
"""Quickstart: the full WatchIT workflow through the stable facade.

An end-user files a free-text ticket; WatchIT classifies it, deploys a
custom-tailored perforated container on the target machine, and the IT
administrator fixes the problem with superuser privileges — but only
within the container's boundaries, with every action monitored. The
whole workflow is three calls on the public API: ``Deployment.create``,
``Deployment.submit``, and the ``Deployment.session`` context manager
(enter = classify + deploy + login; exit = resolve + teardown, even when
the body raises).

Run:  python examples/quickstart.py
"""

from repro import Deployment
from repro.errors import AccessBlocked, FileNotFound


def main() -> None:
    # 1. Bootstrap a simulated organization: three workstations, the
    #    license server, shared storage, software repository, batch
    #    server, and a whitelisted website, all TCB-boot-validated.
    deployment = Deployment.create()
    deployment.register_admin("it-bob")

    # 2. An end-user reports a problem in free text.
    ticket = deployment.submit(
        "alice", "my matlab license expired, toolbox shows an error message",
        machine="ws-01")
    print(f"ticket #{ticket.ticket_id} filed by {ticket.reporter}: {ticket.text!r}")

    # 3. Entering the session classifies the ticket, deploys the matching
    #    perforated container, and logs it-bob in with a temporary
    #    certificate.
    with deployment.session(ticket, admin="it-bob") as session:
        print(f"classified as {ticket.predicted_class} "
              f"({session.container.spec.description}); "
              f"certificate #{session.certificate.serial} issued")

        shell = session.shell
        print(f"admin sees hostname: {shell.hostname()}")

        # 4. The admin retains superuser power *inside the view*: the
        #    user's home directory (where the license lives) is shared
        #    through ITFS.
        print("license before:", shell.read_file("/home/alice/matlab/license.lic"))
        conn = shell.connect("10.0.1.10", 27000)   # the license server
        print("license server says:", conn.send(b"renew matlab"))
        shell.write_file("/home/alice/matlab/license.lic",
                         b"VALID until 2018-07-01")
        print("license after: ", shell.read_file("/home/alice/matlab/license.lic"))

        # 5. ...but the rest of the system simply does not exist in this
        #    view.
        for path in ("/etc/shadow", "/var/log/syslog"):
            try:
                shell.read_file(path)
            except FileNotFound:
                print(f"outside the view: {path} is invisible")

        # 6. Hard constraints hold even inside the view: documents are
        #    blocked (and the denial is in the tamper-evident audit log).
        host = deployment.orchestrator.machines["ws-01"]
        host.rootfs.write("/home/alice/payroll.docx", b"PK\x03\x04 salaries")
        try:
            shell.read_file("/home/alice/payroll.docx")
        except AccessBlocked as exc:
            print(f"hard constraint fired: {exc}")

        # 7. The paper's Figure 6: ps inside vs PB ps through the broker.
        print("ps (inside the container):",
              [row["comm"] for row in shell.ps()])
        response = session.client.pb("ps -a")
        print("PB ps -a (via permission broker):",
              [row["comm"] for row in response.output])

    # 8. Leaving the block resolved the ticket: certificate revoked,
    #    container torn down, logs intact.
    result = session.result
    print(f"session closed: resolved={result.resolved} "
          f"after {result.audit_records} audited actions")
    summary = deployment.audit_summary()
    print(f"ticket resolved; stored audit trail: {summary['records']} "
          f"records, chain verified: {summary['verified']}")


if __name__ == "__main__":
    main()
